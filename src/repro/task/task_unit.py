"""Task unit: queue + spawn/sync ports + N TXU tiles (paper Fig 4/5).

One task unit exists per static task. It accepts spawns from the network,
queues them, dispatches READY entries onto its tiles, routes joins back to
parents, resumes entries suspended at a ``sync``, and delivers serial-call
return values to waiting dataflow nodes.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List, Optional

from repro.errors import SimulationError
from repro.passes.taskgraph import Task
from repro.sim import (
    NEVER,
    OBS_BUSY,
    OBS_IDLE,
    OBS_STALL_IN,
    OBS_STALL_OUT,
    Channel,
    Component,
)
from repro.task.messages import JOIN_CALL, JOIN_SYNC, JoinMessage, SpawnMessage
from repro.task.task_queue import (
    COMPLETE,
    EXE,
    SYNC,
    TaskEntry,
    TaskQueue,
)
from repro.task.txu import OUTBOUND_BUFFER, PARKED, TXUTile

# what ``TaskUnit.obs_classify`` returns, built once
_OBS_IDLE = (OBS_IDLE, None)
_OBS_BUSY = (OBS_BUSY, None)
_OBS_DISPATCH = (OBS_BUSY, "dispatch")
_OBS_SPAWN_NETWORK = (OBS_STALL_OUT, "spawn-network")
_OBS_JOIN_NETWORK = (OBS_STALL_OUT, "join-network")
_OBS_TILES_FULL = (OBS_STALL_IN, "tiles-full")
_OBS_SYNC_WAIT = (OBS_STALL_IN, "sync-wait")


class TaskUnit(Component):
    """The execution engine for one static task."""

    #: the tiles' (state, reason) that ``_obs_tiles`` was built from
    _obs_states: Optional[list] = None

    def __init__(self, name: str, task: Task,
                 spawn_in: Channel, join_in: Channel,
                 spawn_out: Channel, join_out: Channel,
                 tile_requests: List[Channel], tile_responses: List[Channel],
                 queue_depth: int = 32, policy: str = "fifo",
                 max_inflight_per_tile: int = 8,
                 frame_base: int = 0, port: int = 0, latencies=None,
                 trace=None):
        super().__init__(name)
        self.task = task
        self.sid = task.sid
        self.port = port
        self.spawn_in = spawn_in
        self.join_in = join_in
        self.spawn_out = spawn_out
        self.join_out = join_out
        self.frame_base = frame_base
        self.frame_size = task.frame_size
        self.trace = trace

        self.queue = TaskQueue(f"{name}.queue", queue_depth, policy)
        self.tiles: List[TXUTile] = [
            TXUTile(self, i, task, tile_requests[i], tile_responses[i],
                    max_inflight=max_inflight_per_tile, latencies=latencies)
            for i in range(len(tile_requests))
        ]
        self._uid_counter = 0
        self._dispatch_rr = 0
        self._spawn_outbuf: Deque[SpawnMessage] = deque()
        self._join_outbuf: Deque[JoinMessage] = deque()
        self._join_ready: Deque[int] = deque()

        # host-visible completion of a root spawn (parent_sid is None)
        self.root_done = False
        self.root_retval: Any = None

        #: the ``obs_children`` triples obs_classify found in ``_obs_cycle``,
        #: handed to the obs_children call of the same sample; a new list
        #: only when a tile's state moved (``_obs_states``)
        self._obs_tiles: list = []
        self._obs_cycle: Optional[int] = None

    # -- addresses ---------------------------------------------------------

    def frame_address(self, dyid: int) -> int:
        if self.frame_size == 0:
            raise SimulationError(f"{self.name}: task has no frame storage")
        return self.frame_base + dyid * self.frame_size

    # -- dynamic-checker events --------------------------------------------

    def analysis_event(self, kind: str, detail: str = "", payload=None):
        """Emit a structured trace event (returns it, or None untraced).
        The per-spawn and per-instance hooks test ``self.trace`` first, so
        an untraced unit builds no event text or payload."""
        if self.trace is None:
            return None
        cycle = self.sim.cycle if self.sim else 0
        return self.trace.emit(cycle, self.name, kind, detail, payload)

    # -- interface used by tiles ---------------------------------------------

    def issue_spawn(self, dest_sid: int, args: tuple, entry: TaskEntry,
                    ret_ptr: Optional[int] = None, token=None) -> bool:
        """A detach fired: enqueue the spawn and count the child. With a
        call ``token``, a serial call fired: spawn the callee and expect a
        valued join."""
        if len(self._spawn_outbuf) >= OUTBOUND_BUFFER:
            return False
        event = None
        if self.trace is not None:
            event = self.analysis_event(
                "spawn-issue" if token is None else "call-issue",
                f"-> T{dest_sid}", {"gid": entry.gid, "dest_sid": dest_sid})
        self._spawn_outbuf.append(SpawnMessage(
            dest_sid=dest_sid, args=args,
            parent_sid=self.sid, parent_dyid=entry.dyid,
            join_kind=JOIN_SYNC if token is None else JOIN_CALL,
            call_token=token, ret_ptr=ret_ptr, parent_gid=entry.gid,
            spawn_seq=event.seq if event is not None else None))
        if token is None:
            entry.child_count += 1
        return True

    def instance_finished(self, inst):
        entry = inst.entry
        entry.state = COMPLETE
        if entry.child_count == 0:
            self._join_ready.append(entry.dyid)
        if self.trace is not None:
            self.analysis_event("complete", f"dyid={entry.dyid}")

    def instance_suspended(self, inst):
        if self.trace is not None:
            self.analysis_event("suspend", f"dyid={inst.entry.dyid}")

    # -- clocked behaviour -----------------------------------------------------

    def tick(self, cycle: int):
        self._accept_join(cycle)
        self._accept_spawn()
        self._dispatch(cycle)
        for tile in self.tiles:
            if tile.instances:  # a response always has its instance
                tile.tick(cycle)
        self._send_join()
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

    def _accept_spawn(self):
        if not self.spawn_in.can_pop():
            return
        if not self.queue.has_free_entry():
            return  # backpressure: spawn waits in the network
        self._apply_spawn(self.spawn_in.pop())

    def _apply_spawn(self, msg: "SpawnMessage"):
        """Allocate a popped spawn message (channel-free: the compiled
        engine pops the channel itself and delegates here)."""
        if msg.dest_sid != self.sid:
            raise SimulationError(
                f"{self.name}: spawn for SID {msg.dest_sid} routed to "
                f"SID {self.sid}")
        entry = self.queue.allocate(msg)
        entry.gid = (self.sid, self.queue.total_allocated - 1)
        if self.trace is not None:
            self.analysis_event("spawn-in",
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
                return

    def _send_join(self):
        if not self._join_ready:
            return
        dyid = self._join_ready[0]
        entry = self.queue.entry(dyid)
        if entry.parent_sid is None:
            # host-issued root task: completion ends the offload
            self._join_ready.popleft()
            self.root_done = True
            self.root_retval = entry.retval
            self.queue.release(entry)
            return
        if len(self._join_outbuf) >= OUTBOUND_BUFFER:
            return
        self._join_ready.popleft()
        self._join_outbuf.append(JoinMessage(
            parent_sid=entry.parent_sid, parent_dyid=entry.parent_dyid,
            join_kind=entry.join_kind, call_token=entry.call_token,
            retval=entry.retval, child_gid=entry.gid))
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
        states, stalls, busy = [], [], False
        for tile in self.tiles:
            now = tile.obs_classify(cycle)
            states.append(now)
            if now[0] == OBS_BUSY:
                busy = True
            elif now[0] != OBS_IDLE:
                stalls.append(now)
        self._obs_cycle = cycle
        if states != self._obs_states:  # the children move only with a tile
            self._obs_states = states
            self._obs_tiles = [(tile.obs_name, *now)
                               for tile, now in zip(self.tiles, states)]
        if busy:
            return _OBS_BUSY
        if self._spawn_outbuf and not self.spawn_out.can_push():
            return _OBS_SPAWN_NETWORK
        if self._join_outbuf and not self.join_out.can_push():
            return _OBS_JOIN_NETWORK
        if stalls:  # whatever most of its tiles stall for, the first on a tie
            return max(stalls, key=stalls.count)
        if self.queue.has_ready():
            for tile in self.tiles:
                if tile.has_capacity():
                    return _OBS_DISPATCH
            return _OBS_TILES_FULL
        if self._join_ready or self._spawn_outbuf or self._join_outbuf:
            return _OBS_BUSY
        if self.queue.occupancy > 0:
            # every live entry is suspended at a sync, waiting on children
            # executing in other units
            return _OBS_SYNC_WAIT
        return _OBS_IDLE

    def obs_children(self, cycle):
        if self._obs_cycle != cycle:  # not preceded by obs_classify(cycle)
            self.obs_classify(cycle)
        self._obs_cycle = None
        return self._obs_tiles

    def stats(self):
        tile_stats = [t.stats() for t in self.tiles]
        return {
            "spawns_accepted": self.queue.total_allocated,
            # a spawn or call leaves through the out-buffer
            "spawns_issued": self.spawn_out.total_pushed
            + len(self._spawn_outbuf),
            "queue": self.queue.stats(),
            "tiles": tile_stats,
            "completed": sum(t["completed_instances"] for t in tile_stats),
        }
