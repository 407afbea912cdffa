"""Task unit: queue + spawn/sync ports + N TXU tiles (paper Fig 4/5).

One task unit exists per static task. It accepts spawns from the network,
queues them, dispatches READY entries onto its tiles, routes joins back to
parents, resumes entries suspended at a ``sync``, and delivers serial-call
return values to waiting dataflow nodes.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional

from repro.errors import SimulationError
from repro.sim import (
    NEVER,
    OBS_BUSY,
    OBS_IDLE,
    OBS_STALL_IN,
    OBS_STALL_OUT,
    Channel,
    Component,
)
from repro.task.program import CompiledTask
from repro.task.messages import JOIN_CALL, JOIN_SYNC, JoinMessage, SpawnMessage
from repro.task.task_queue import (
    COMPLETE,
    EXE,
    READY,
    SYNC,
    TaskEntry,
    TaskQueue,
)
from repro.task.txu import PARKED, TXUTile

#: bound on buffered outbound messages before spawn sites see backpressure
OUTBOUND_BUFFER = 4


class TaskUnit(Component):
    """The execution engine for one static task."""

    def __init__(self, name: str, compiled: CompiledTask,
                 spawn_in: Channel, join_in: Channel,
                 spawn_out: Channel, join_out: Channel,
                 tile_requests: List[Channel], tile_responses: List[Channel],
                 queue_depth: int = 32, policy: str = "fifo",
                 max_inflight_per_tile: int = 8,
                 frame_base: int = 0, frame_size: int = 0,
                 port: int = 0, latencies=None, trace=None):
        super().__init__(name)
        self.compiled = compiled
        self.sid = compiled.sid
        self.port = port
        self.spawn_in = spawn_in
        self.join_in = join_in
        self.spawn_out = spawn_out
        self.join_out = join_out
        self.frame_base = frame_base
        self.frame_size = frame_size
        self.trace = trace

        self.queue = TaskQueue(f"{name}.queue", queue_depth, policy)
        self.tiles: List[TXUTile] = [
            TXUTile(self, i, compiled, tile_requests[i], tile_responses[i],
                    max_inflight=max_inflight_per_tile, latencies=latencies)
            for i in range(len(tile_requests))
        ]
        self._uid_counter = 0
        self._gid_counter = 0
        self._dispatch_rr = 0
        self._spawn_outbuf: Deque[SpawnMessage] = deque()
        self._join_outbuf: Deque[JoinMessage] = deque()
        self._join_ready: Deque[int] = deque()

        # host-visible completion of a root spawn (parent_sid is None)
        self.root_done = False
        self.root_retval: Any = None

        self.spawns_accepted = 0
        self.spawns_issued = 0
        self.first_dispatch_cycle: Optional[int] = None
        self.last_completion_cycle: Optional[int] = None
        #: last cycle whose tile busy_cycles accounting is complete — the
        #: event engine may skip ticks while every instance is parked on a
        #: memory/call response (state frozen), and the dense engine counts
        #: those as busy tile cycles, so they are caught up in bulk
        self._synced_to = -1
        #: (cycle, tile classifications) handed from obs_classify to the
        #: obs_children call of the same sample — tiles classify once
        self._obs_tiles: tuple = (None, None)

    # -- addresses ---------------------------------------------------------

    def frame_address(self, dyid: int) -> int:
        if self.frame_size == 0:
            raise SimulationError(f"{self.name}: task has no frame storage")
        return self.frame_base + dyid * self.frame_size

    # -- dynamic-checker events --------------------------------------------

    def analysis_event(self, kind: str, detail: str = "", payload=None):
        """Emit a structured trace event (returns it, or None untraced)."""
        if self.trace is None:
            return None
        cycle = self.sim.cycle if self.sim else 0
        return self.trace.emit(cycle, self.name, kind, detail, payload=payload)

    # -- interface used by tiles ---------------------------------------------

    def issue_spawn(self, dest_sid: int, args: tuple, entry: TaskEntry,
                    ret_ptr: Optional[int]) -> bool:
        """A detach fired: enqueue the spawn and count the child."""
        if len(self._spawn_outbuf) >= OUTBOUND_BUFFER:
            return False
        event = self.analysis_event("spawn-issue", f"-> T{dest_sid}",
                                    {"gid": entry.gid, "dest_sid": dest_sid})
        self._spawn_outbuf.append(SpawnMessage(
            dest_sid=dest_sid, args=args,
            parent_sid=self.sid, parent_dyid=entry.dyid,
            join_kind=JOIN_SYNC, ret_ptr=ret_ptr,
            parent_gid=entry.gid,
            spawn_seq=event.seq if event is not None else None))
        entry.child_count += 1
        self.spawns_issued += 1
        return True

    def issue_call(self, dest_sid: int, args: tuple, entry: TaskEntry,
                   token) -> bool:
        """A serial call fired: spawn the callee, expect a valued join."""
        if len(self._spawn_outbuf) >= OUTBOUND_BUFFER:
            return False
        event = self.analysis_event("call-issue", f"-> T{dest_sid}",
                                    {"gid": entry.gid, "dest_sid": dest_sid})
        self._spawn_outbuf.append(SpawnMessage(
            dest_sid=dest_sid, args=args,
            parent_sid=self.sid, parent_dyid=entry.dyid,
            join_kind=JOIN_CALL, call_token=token,
            parent_gid=entry.gid,
            spawn_seq=event.seq if event is not None else None))
        self.spawns_issued += 1
        return True

    def instance_finished(self, inst):
        entry = inst.entry
        entry.retval = inst.retval
        entry.state = COMPLETE
        if entry.child_count == 0:
            self._join_ready.append(entry.dyid)
        if self.trace is not None:
            self.trace.emit(self.sim.cycle if self.sim else 0, self.name,
                            "complete", f"dyid={entry.dyid}")

    def instance_suspended(self, inst):
        if self.trace is not None:
            self.trace.emit(self.sim.cycle if self.sim else 0, self.name,
                            "suspend", f"dyid={inst.entry.dyid}")

    # -- clocked behaviour -----------------------------------------------------

    def _catch_up(self, through_cycle: int):
        gap = through_cycle - self._synced_to
        if gap > 0:
            for tile in self.tiles:
                if tile.instances:
                    tile.busy_cycles += gap
            self._synced_to = through_cycle

    def tick(self, cycle: int):
        if self._synced_to < cycle - 1:  # only after an event-engine skip
            self._catch_up(cycle - 1)
        self._synced_to = cycle
        self._accept_join(cycle)
        self._accept_spawn(cycle)
        self._dispatch(cycle)
        for tile in self.tiles:
            tile.tick(cycle)
        self._send_join(cycle)
        self._drain_outbound()

    def _accept_join(self, cycle: int):
        if not self.join_in.can_pop():
            return
        self._apply_join(self.join_in.pop(), cycle)

    def _apply_join(self, msg: "JoinMessage", cycle: int):
        """Process a popped join message (channel-free: the compiled
        engine pops the channel itself and delegates here)."""
        if msg.join_kind == JOIN_CALL:
            tile_index, uid, node_idx = msg.call_token
            self.tiles[tile_index].deliver_call_return(
                uid, node_idx, msg.retval, cycle, child_gid=msg.child_gid)
            return
        self.queue.child_joined(msg.parent_dyid)
        entry = self.queue.entry(msg.parent_dyid)
        if entry.child_count == 0:
            if entry.state == SYNC:
                self.queue.mark_ready(entry)  # resume past the sync
                self.analysis_event("sync-resume", f"dyid={entry.dyid}",
                                    {"gid": entry.gid})
            elif entry.state == COMPLETE:
                self._join_ready.append(entry.dyid)

    def _accept_spawn(self, cycle: int):
        if not self.spawn_in.can_pop():
            return
        if not self.queue.has_free_entry():
            return  # backpressure: spawn waits in the network
        self._apply_spawn(self.spawn_in.pop(), cycle)

    def _apply_spawn(self, msg: "SpawnMessage", cycle: int):
        """Allocate a popped spawn message (channel-free: the compiled
        engine pops the channel itself and delegates here)."""
        if msg.dest_sid != self.sid:
            raise SimulationError(
                f"{self.name}: spawn for SID {msg.dest_sid} routed to "
                f"SID {self.sid}")
        entry = self.queue.allocate(msg)
        entry.gid = (self.sid, self._gid_counter)
        self._gid_counter += 1
        self.spawns_accepted += 1
        if self.trace is not None:
            self.trace.emit(cycle, self.name, "spawn-in",
                            f"from T{msg.parent_sid}:{msg.parent_dyid}")
            self.analysis_event(
                "task-start", f"gid={entry.gid}",
                {"gid": entry.gid, "parent_gid": entry.parent_gid,
                 "origin_seq": entry.origin_seq,
                 "call": msg.join_kind == JOIN_CALL})

    def _dispatch(self, cycle: int):
        if not self.queue.has_ready():
            return
        # find a tile with capacity, round-robin for load balance
        n = len(self.tiles)
        for offset in range(n):
            tile = self.tiles[(self._dispatch_rr + offset) % n]
            if tile.has_capacity():
                entry = self.queue.take_ready()
                if entry is None:
                    return
                entry.state = EXE
                tile.start(self._uid_counter, entry, cycle)
                self._uid_counter += 1
                self._dispatch_rr = (self._dispatch_rr + offset + 1) % n
                if self.first_dispatch_cycle is None:
                    self.first_dispatch_cycle = cycle
                return

    def _send_join(self, cycle: int):
        if not self._join_ready:
            return
        dyid = self._join_ready[0]
        entry = self.queue.entry(dyid)
        if entry.parent_sid is None:
            # host-issued root task: completion ends the offload
            self._join_ready.popleft()
            self.root_done = True
            self.root_retval = entry.retval
            self.last_completion_cycle = cycle
            self.queue.release(entry)
            return
        if len(self._join_outbuf) >= OUTBOUND_BUFFER:
            return
        self._join_ready.popleft()
        self._join_outbuf.append(JoinMessage(
            parent_sid=entry.parent_sid, parent_dyid=entry.parent_dyid,
            join_kind=entry.join_kind, call_token=entry.call_token,
            retval=entry.retval, child_gid=entry.gid))
        self.last_completion_cycle = cycle
        self.queue.release(entry)

    def _drain_outbound(self):
        if self._spawn_outbuf and self.spawn_out.can_push():
            self.spawn_out.push(self._spawn_outbuf.popleft())
        if self._join_outbuf and self.join_out.can_push():
            self.join_out.push(self._join_outbuf.popleft())

    # -- engine integration -----------------------------------------------

    def ports(self):
        inputs = [self.spawn_in, self.join_in]
        outputs = [self.spawn_out, self.join_out]
        for tile in self.tiles:
            outputs.append(tile.request_out)
            inputs.append(tile.response_in)
        return (tuple(inputs), tuple(outputs))

    def next_wake(self, cycle):
        # pending joins and root completion advance without any channel
        # movement, one per cycle
        if self._join_ready:
            return cycle + 1
        # a spawn parked in the network behind a full queue becomes
        # acceptable the tick after a release — no new push occurs
        if self.spawn_in.can_pop() and self.queue.has_free_entry():
            return cycle + 1
        wake = NEVER
        has_capacity = False
        for tile in self.tiles:
            if tile.has_capacity():
                has_capacity = True
            # the tile's timer, computed during its tick: the earliest
            # instance progress possible without new channel traffic
            # (PARKED = every live instance is channel-driven)
            w = tile._min_wake
            if w < PARKED and w < wake:
                wake = w
        if self.queue.has_ready() and has_capacity:
            return cycle + 1
        if wake <= cycle:
            wake = cycle + 1
        return wake

    def is_busy(self):
        if self._spawn_outbuf or self._join_outbuf or self._join_ready:
            return True
        if self.queue.occupancy > 0:
            return True
        return any(t.instances for t in self.tiles)

    def obs_classify(self, cycle):
        tile_states = [tile.obs_classify(cycle) for tile in self.tiles]
        self._obs_tiles = (cycle, tile_states)
        if any(state == OBS_BUSY for state, _ in tile_states):
            return OBS_BUSY, None
        if self._spawn_outbuf and not self.spawn_out.can_push():
            return OBS_STALL_OUT, "spawn-network"
        if self._join_outbuf and not self.join_out.can_push():
            return OBS_STALL_OUT, "join-network"
        stalls = [(state, reason) for state, reason in tile_states
                  if state in (OBS_STALL_IN, OBS_STALL_OUT)]
        if stalls:
            # the unit stalls for whatever most of its tiles stall for
            counts: Dict[tuple, int] = {}
            for pair in stalls:
                counts[pair] = counts.get(pair, 0) + 1
            return max(counts, key=counts.get)
        if self.queue.has_ready():
            if any(tile.has_capacity() for tile in self.tiles):
                return OBS_BUSY, "dispatch"
            return OBS_STALL_IN, "tiles-full"
        if self._join_ready or self._spawn_outbuf or self._join_outbuf:
            return OBS_BUSY, None
        if self.queue.occupancy > 0:
            # every live entry is suspended at a sync, waiting on children
            # executing in other units
            return OBS_STALL_IN, "sync-wait"
        return OBS_IDLE, None

    def obs_children(self, cycle):
        sampled_at, tile_states = self._obs_tiles
        self._obs_tiles = (None, None)
        if sampled_at != cycle:  # not preceded by obs_classify(cycle)
            tile_states = [tile.obs_classify(cycle) for tile in self.tiles]
        return [(tile.obs_name, state, reason)
                for tile, (state, reason) in zip(self.tiles, tile_states)]

    def stats(self):
        if self.sim is not None:
            self._catch_up(self.sim.cycle - 1)
        tile_stats = [t.stats() for t in self.tiles]
        return {
            "spawns_accepted": self.spawns_accepted,
            "spawns_issued": self.spawns_issued,
            "queue": self.queue.stats(),
            "tiles": tile_stats,
            "completed": sum(t["completed_instances"] for t in tile_stats),
        }
