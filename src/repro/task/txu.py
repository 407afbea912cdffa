"""TXU: the Task eXecution Unit — a dynamically scheduled dataflow tile.

Each tile interprets its task's per-block dataflow graph with
latency-insensitive semantics (paper §III-C): an operation fires when its
operands are ready, every static operation node accepts at most one new
dynamic firing per cycle (the pipeline-register structural hazard of
Fig 7), memory operations issue into the data box and block only their
dependents, and multiple dynamic task instances share the pipeline
simultaneously.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from repro.errors import SimulationError
from repro.ir.instructions import (
    Alloca,
    Br,
    CondBr,
    Detach,
    Load,
    Reattach,
    Ret,
    Sync,
)
from repro.ir.opsem import RegSlot, eval_pure, raw_to_value, value_to_raw
from repro.ir.values import Constant, GlobalVariable, Value
from repro.memory.databox import MemTag
from repro.memory.messages import MemRequest
from repro.passes.taskgraph import Task
from repro.sim.component import OBS_BUSY, OBS_IDLE, OBS_STALL_IN, OBS_STALL_OUT
from repro.task.task_queue import SYNC, TaskEntry

#: dataflow-node latencies by functional-unit class (cycles)
DEFAULT_LATENCIES = {
    "alu": 1,
    "gep": 1,
    "mul": 3,
    "div": 12,
    "falu": 4,
    "fmul": 4,
    "fdiv": 16,
    "regread": 1,
    "regwrite": 1,
    "nop": 1,
    "control": 1,
    "spawn": 1,
    "sync": 1,
}

_EPILOGUE_NODE = -1  # synthetic node id for the ret_ptr store

#: the done-cycle of a node that has not fired, and the timer contribution
#: of an instance only channel movement (a memory or call response, a
#: resource with room again) can unblock; the task unit's next_wake treats
#: it as channel-driven, not timer-driven
PARKED = 1 << 60

#: the done-cycle of an issued memory or call node until its response
#: overwrites it: later than every cycle, below PARKED, never a wake time
AWAIT_MEM = PARKED - 2
AWAIT_CALL = PARKED - 1

#: bound on a unit's buffered outbound messages before spawn and call
#: sites see backpressure
OUTBOUND_BUFFER = 4

#: what one step of an instance reports to the scheduler (the interpreted
#: :meth:`TXUTile._step_instance` and every generated stepper alike);
#: PORT and OUTBUF double as the :attr:`Instance.park` value of an
#: instance parked on that resource
QUIET = 0   # nothing fired, moved, was deferred or refused
PORT = 1    # a memory node was refused the tile's request port
OUTBUF = 2  # the detach terminator was refused the unit's spawn out-buffer
CALL = 3    # a call node was refused the out-buffer: it polls, never parks
GO = 4      # a node fired or was deferred, or the block moved on

RUN = "run"
EPILOGUE_ISSUE = "epilogue_issue"
EPILOGUE_WAIT = "epilogue_wait"
DONE = "done"
_EPILOGUE = (EPILOGUE_ISSUE, EPILOGUE_WAIT)

# what ``TXUTile.obs_classify`` returns, built once
_OBS_IDLE = (OBS_IDLE, None)
_OBS_BUSY = (OBS_BUSY, None)
_OBS_EXECUTE = (OBS_BUSY, "execute")
_OBS_SPAWN_BACKPRESSURE = (OBS_STALL_OUT, "spawn-backpressure")
_OBS_MEM_BACKPRESSURE = (OBS_STALL_OUT, "mem-backpressure")
_OBS_MEMORY = (OBS_STALL_IN, "memory")
_OBS_CALL_JOIN = (OBS_STALL_IN, "call-join")


class Instance:
    """One dynamic task instance in flight on a tile."""

    __slots__ = (
        "uid", "entry", "block", "env", "regs", "node_done", "phase",
        "wake_at", "park",
    )

    def __init__(self, uid: int, entry: TaskEntry, block, nodes: int):
        self.uid = uid
        self.entry = entry
        self.block = block
        self.env: Dict[Value, Any] = {}
        self.regs: Dict[Alloca, Any] = {}
        #: per node of ``block``'s dataflow graph, the cycle at which its
        #: result is available: :data:`PARKED` until it fires,
        #: :data:`AWAIT_MEM` / :data:`AWAIT_CALL` from an issued memory or
        #: call node until its response -- the instance's whole progress
        #: record in the block
        self.node_done: List[int] = [PARKED] * nodes
        self.phase = RUN
        #: scheduling hint: no dataflow progress possible before this cycle
        #: (purely a simulation fast path, not architectural state)
        self.wake_at = 0
        #: the resource a blocked instance is parked on -- 0 none, PORT the
        #: tile's request port, OUTBUF the unit's spawn out-buffer: the
        #: scheduler (:meth:`TXUTile._schedule`) does not step it again until
        #: that resource has room or a response resets ``wake_at``
        self.park = 0


class TXUTile:
    """One execution tile. Not a Component itself — the owning TaskUnit
    ticks it so unit-level arbitration stays in one place."""

    def __init__(self, unit, tile_index: int, task: Task,
                 request_out, response_in, max_inflight: int = 8,
                 latencies: Optional[Dict[str, int]] = None):
        self.unit = unit
        self.tile_index = tile_index
        #: ledger / trace-track name of this tile
        self.obs_name = f"{unit.name}.tile{tile_index}"
        self.task = task
        self.request_out = request_out
        self.response_in = response_in
        self.max_inflight = max_inflight
        self.latencies = latencies or DEFAULT_LATENCIES
        self.instances: List[Instance] = []
        self._by_uid: Dict[int, Instance] = {}
        self._fired: Set[Tuple[Any, int]] = set()
        self._mem_issued_this_cycle = False
        # per-cycle stall markers read by obs_classify (never by timing)
        self._mem_blocked = False
        self._spawn_blocked = False
        #: occupancy: the cycles of the closed spans, and the first cycle of
        #: the open one (a span opens when an instance starts on the empty
        #: tile and closes in the cycle the tile empties)
        self._busy_closed = 0
        self._busy_since = 0
        self.completed_instances = 0
        #: earliest cycle any instance on this tile can make progress
        #: without new channel traffic (PARKED = channel-driven only);
        #: recomputed by the instance loop, read by TaskUnit.next_wake
        self._min_wake = PARKED
        #: the instance loop's own gate: the earliest ``wake_at`` of an
        #: unparked running instance (0 after a start, a memory response or
        #: a call return), the park reasons ORed and the instances parked
        self._due = 0
        self._parked = 0
        self._parked_count = 0
        #: scheduler calls of a stepper, and steps skipped on a parked
        #: instance whose resource stayed taken (host-side, not timing)
        self.instance_steps = 0
        self.parked_skips = 0

    # -- capacity ------------------------------------------------------------

    def has_capacity(self) -> bool:
        return len(self.instances) < self.max_inflight

    def start(self, uid: int, entry: TaskEntry, cycle: int) -> Instance:
        """Begin a fresh instance or resume a suspended one."""
        if not self.instances:
            self._busy_since = cycle
        resumed = entry.resume_block is not None
        block = entry.resume_block if resumed else self.task.entry
        inst = Instance(uid, entry, block,
                        len(self.task.dfgs[block].nodes))
        if resumed:
            inst.env = entry.saved_env or {}
            inst.regs = entry.saved_regs or {}
            entry.resume_block = None
            entry.saved_env = None
            entry.saved_regs = None
        else:
            for value, arg in zip(self.task.args, entry.args):
                inst.env[value] = arg
        self.instances.append(inst)
        self._by_uid[inst.uid] = inst
        self._due = 0
        return inst

    # -- value resolution -----------------------------------------------------

    def _resolve(self, inst: Instance, value: Value):
        if isinstance(value, Constant):
            return value.value
        if isinstance(value, GlobalVariable):
            if value.address is None:
                raise SimulationError(f"global @{value.name} has no address")
            return value.address
        if value in inst.env:
            return inst.env[value]
        raise SimulationError(
            f"value {value.short()} not available in task {self.task.name}")

    # -- clocked behaviour -----------------------------------------------------

    def tick(self, cycle: int):
        """One cycle of a tile holding an instance (its unit ticks no
        other): retire a memory response, then run the instance scheduler
        when something can have changed since it last ran -- ``_due`` has
        come, or a resource an instance is parked on has room -- or else
        set the stall markers of the parked instances.

        The scheduler, this method and :meth:`_schedule`, is written once,
        here, for every engine: :mod:`repro.sim.derive` inlines this method
        into the compiled kernel and compiles ``_schedule`` into the unit's
        stepper module, with the generated steppers in place of
        ``_step_instance``."""
        if self._fired:
            self._fired.clear()
        self._mem_issued_this_cycle = False
        self._mem_blocked = False
        self._spawn_blocked = False
        if self.response_in.can_pop():
            response = self.response_in.pop()
            self._apply_response(response, cycle)
        parked = self._parked
        if cycle >= self._due or parked & PORT and self.request_out.can_push() \
                or parked & OUTBUF \
                and len(self.unit._spawn_outbuf) < OUTBOUND_BUFFER:
            self._schedule(cycle, self.request_out.can_push())
        elif parked:  # every parked instance's resource is still taken
            self.parked_skips += self._parked_count
            if parked & PORT:
                self._mem_blocked = True
            if parked & OUTBUF:
                self._spawn_blocked = True

    def _schedule(self, cycle: int, room: bool):
        """The instance loop. A step reports what happened (:data:`GO`,
        :data:`QUIET`, or the resource that refused it) and the loop turns
        that into the instance's ``wake_at``, its timer contribution and
        its park. An instance that moved (GO) and is still running wakes at
        ``cycle + 1``, the least contribution any instance can make, so it
        sets the loop's ``due`` and timer outright. An instance refused
        only the request port or the spawn out-buffer, with no node
        maturing, is *parked* on it: its step could only re-find the
        resource taken, and set the stall marker, so it is not taken again
        until the resource has room (``room``: the port's, at the start of
        the cycle) or a response resets ``wake_at``. A refused instance
        with a node still maturing contributes that node's done cycle
        (:meth:`_soonest`). An instance whose return-value store is out
        sleeps at ``wake_at = PARKED`` until :meth:`_apply_response`
        retires the store."""
        parked = count = steps = skips = 0
        due = timer = PARKED
        finished = []
        for inst in self.instances[:]:
            wake = inst.wake_at
            if cycle < wake:
                if wake < timer:
                    timer = wake
                if wake < due:
                    due = wake
                continue
            park = inst.park
            if park:
                if wake and (
                        len(self.unit._spawn_outbuf) >= OUTBOUND_BUFFER
                        if park == OUTBUF else not room
                        or self._mem_issued_this_cycle):
                    # the stall marker its step would set
                    if park == OUTBUF:
                        self._spawn_blocked = True
                    elif not room:
                        self._mem_blocked = True
                    parked |= park
                    count += 1
                    skips += 1
                    continue
                inst.park = park = 0
            phase = inst.phase
            if phase == RUN:
                steps += 1
                report = self._step_instance(inst, cycle)
                inst.wake_at = wake = cycle + 1
                if report == GO:
                    phase = inst.phase
                    if phase == RUN:
                        due = timer = wake
                        continue
                else:  # waiting on its earliest maturing node, if any
                    soonest = self._soonest(inst, cycle)
                    wake = soonest if soonest < AWAIT_MEM else PARKED
                    if report == QUIET:
                        if soonest == PARKED:  # nothing matures or awaits
                            wake = cycle + 1
                        inst.wake_at = wake
                    elif wake == PARKED and report != CALL:
                        inst.park = park = report
            if phase == EPILOGUE_ISSUE:  # a return value to store
                self._issue_epilogue_store(inst)
                phase = inst.phase
            if phase != RUN:
                if phase == DONE:
                    finished.append(inst)
                    continue
                wake = PARKED
                if phase == EPILOGUE_ISSUE:  # its store was refused the port
                    inst.park = park = PORT
            if park:
                parked |= park
                count += 1
            elif phase == RUN and inst.wake_at < due:
                due = inst.wake_at
            if wake < timer:
                timer = wake
        self.instance_steps += steps
        self.parked_skips += skips
        self._parked = parked
        self._parked_count = count
        self._due = due
        for inst in finished:
            self.instances.remove(inst)
            self._by_uid.pop(inst.uid)
            self.completed_instances += 1
            self.unit.instance_finished(inst)
        if self.instances:
            self._min_wake = timer
        else:
            self._min_wake = PARKED
            self._busy_closed += cycle + 1 - self._busy_since

    def _soonest(self, inst: Instance, cycle: int) -> int:
        """The earliest done cycle of ``inst``'s nodes still ahead of
        ``cycle`` (:data:`AWAIT_MEM` / :data:`AWAIT_CALL` for an issued
        memory or call node), or :data:`PARKED`. Read after a step that
        fired nothing, when only a node of latency 2 or more, or a memory
        or call node, can be ahead: the generated kernel scans just those
        nodes of the block."""
        return min(filter(cycle.__lt__, inst.node_done), default=PARKED)

    def _apply_response(self, resp, cycle: int):
        """Retire a popped memory response."""
        self._due = 0
        inst = self._by_uid.get(resp.tag.instance)
        if inst is None:
            raise SimulationError(
                f"tile {self.tile_index}: response for unknown instance "
                f"{resp.tag.instance}")
        inst.wake_at = 0
        node_idx = resp.tag.node
        if node_idx == _EPILOGUE_NODE:
            inst.phase = DONE
            return
        node = self.task.dfgs[inst.block].nodes[node_idx]
        if isinstance(node.inst, Load):
            inst.env[node.inst] = raw_to_value(node.inst.type, resp.data or 0)
        inst.node_done[node_idx] = cycle

    def deliver_call_return(self, uid: int, node_idx: int, retval, cycle: int,
                            child_gid=None):
        """A serial call completed; unblock the waiting call node."""
        inst = self._by_uid.get(uid)
        if inst is None:
            raise SimulationError(f"call return for unknown instance {uid}")
        self.unit.analysis_event(
            "call-return", f"gid={inst.entry.gid}",
            {"gid": inst.entry.gid, "child_gid": child_gid})
        inst.wake_at = 0
        self._due = 0
        node = self.task.dfgs[inst.block].nodes[node_idx]
        if not node.inst.type.is_void():
            inst.env[node.inst] = retval
        inst.node_done[node_idx] = cycle

    # -- per-instance dataflow step ------------------------------------------

    def _step_instance(self, inst: Instance, cycle: int) -> int:
        """One dataflow step of a running instance: fire every ready node,
        then try the block's terminator. Reports what happened to the
        scheduler (:meth:`_schedule`), which alone sets ``wake_at`` and
        ``park``: GO, QUIET, or the resource that refused a node."""
        dfg = self.task.dfgs[inst.block]
        fired = deferred = False
        refused = QUIET
        for node in dfg.nodes[:-1]:  # the terminator fires at transition
            idx = node.index
            if inst.node_done[idx] != PARKED:
                continue
            if not self._deps_ready(inst, node, cycle):
                continue
            key = (inst.block, idx)
            if key in self._fired:
                deferred = True
                continue  # structural hazard: one firing per node per cycle
            report = self._fire(inst, node, cycle)
            if report == GO:
                self._fired.add(key)
                fired = True
            else:
                refused |= report  # a refused call outranks the port
        moved = self._maybe_transition(inst, dfg, cycle)
        if fired or moved == GO:
            if self.unit.sim is not None:
                self.unit.sim.note_activity()
            return GO
        return GO if deferred else moved or refused

    def _deps_ready(self, inst: Instance, node, cycle: int) -> bool:
        done = inst.node_done
        for dep in node.deps:
            if done[dep] > cycle:
                return False
        return True

    def _fire(self, inst: Instance, node, cycle: int) -> int:
        """Execute one dataflow node: GO, or the resource that refused it
        (PORT, CALL) and must be retried."""
        ir = node.inst
        kind = node.kind
        env = inst.env

        if kind in ("load", "store"):
            return self._fire_memory(inst, node, cycle)

        if kind == "call":
            return self._fire_call(inst, node, cycle)

        if kind == "regread":
            slot = ir.pointer
            env[ir] = inst.regs.get(slot, 0)
        elif kind == "regwrite":
            inst.regs[ir.pointer] = self._resolve(inst, ir.value)
        elif kind == "nop":  # alloca
            if isinstance(ir, Alloca):
                if ir.in_frame:
                    env[ir] = self.unit.frame_address(inst.entry.dyid) \
                        + self.task.frame_offsets[ir]
                else:
                    env[ir] = RegSlot(ir)
        else:
            env[ir] = eval_pure(ir, lambda value: self._resolve(inst, value))

        inst.node_done[node.index] = cycle + self.latencies.get(kind, 1)
        return GO

    def _fire_memory(self, inst: Instance, node, cycle: int) -> int:
        if self._mem_issued_this_cycle:
            return PORT
        if not self.request_out.can_push():
            self._mem_blocked = True
            return PORT
        ir = node.inst
        addr_val = self._resolve(inst, ir.pointer)
        if isinstance(addr_val, RegSlot):
            raise SimulationError("register access classified as memory op")
        tag = MemTag(self.unit.sid, self.tile_index, inst.uid, node.index)
        if isinstance(ir, Load):
            req = MemRequest(tag=tag, op="load", addr=int(addr_val),
                             size=ir.type.size_bytes, port=self.unit.port)
        else:
            value = self._resolve(inst, ir.value)
            req = MemRequest(tag=tag, op="store", addr=int(addr_val),
                             size=ir.value.type.size_bytes,
                             data=value_to_raw(ir.value.type, value),
                             port=self.unit.port)
        self.unit.analysis_event(
            "mem", f"{req.op} addr={req.addr}",
            {"gid": inst.entry.gid, "op": req.op, "addr": req.addr,
             "size": req.size, "sid": self.unit.sid, "node": node.index,
             "inst": ir})
        self.request_out.push(req)
        self._mem_issued_this_cycle = True
        inst.node_done[node.index] = AWAIT_MEM
        return GO

    def _fire_call(self, inst: Instance, node, cycle: int) -> int:
        ir = node.inst
        edge = self.task.spawns[ir]
        args = tuple(self._resolve(inst, v) for v in edge.args)
        token = (self.tile_index, inst.uid, node.index)
        if not self.unit.issue_spawn(edge.target.sid, args, inst.entry,
                                     token=token):
            self._spawn_blocked = True
            return CALL
        inst.node_done[node.index] = AWAIT_CALL
        return GO

    # -- block transition ------------------------------------------------------

    def _maybe_transition(self, inst: Instance, dfg, cycle: int) -> int:
        """GO on a state change, OUTBUF when a detach terminator is ready
        but back-pressured, QUIET while the block is still draining."""
        nodes = dfg.nodes
        term_node = nodes[-1]
        # every body node must be complete
        for node in nodes[:-1]:
            if inst.node_done[node.index] > cycle:
                return QUIET
        # terminator dependencies (spawn-arg marshalling etc.)
        if not self._deps_ready(inst, term_node, cycle):
            return QUIET

        term = term_node.inst
        if isinstance(term, Detach):
            if not self._fire_spawn(inst, term):
                return OUTBUF  # spawn network backpressure
            self._enter_block(inst, term.continuation)
        elif isinstance(term, Sync):
            if inst.entry.child_count > 0:
                self._suspend(inst, term.continuation)
            else:
                # nothing outstanding: the sync is still a join point
                self.unit.analysis_event("sync-pass",
                                         f"gid={inst.entry.gid}",
                                         {"gid": inst.entry.gid})
                self._enter_block(inst, term.continuation)
        elif isinstance(term, Br):
            self._enter_block(inst, term.dest)
        elif isinstance(term, CondBr):
            taken = self._resolve(inst, term.cond)
            self._enter_block(inst, term.if_true if taken else term.if_false)
        elif isinstance(term, Reattach):
            self._finish(inst, None)
        elif isinstance(term, Ret):
            retval = (self._resolve(inst, term.value)
                      if term.value is not None else None)
            self._finish(inst, retval)
        else:
            raise SimulationError(f"TXU cannot handle terminator {term.opcode}")
        return GO

    def _fire_spawn(self, inst: Instance, detach: Detach) -> bool:
        edge = self.task.spawns[detach]
        args = tuple(self._resolve(inst, v) for v in edge.args)
        ret_ptr = (int(self._resolve(inst, edge.ret_ptr))
                   if edge.ret_ptr is not None else None)
        if not self.unit.issue_spawn(edge.target.sid, args, inst.entry,
                                     ret_ptr):
            self._spawn_blocked = True
            return False
        return True

    def _enter_block(self, inst: Instance, block):
        dfg = self.task.dfgs.get(block)
        if dfg is None:
            raise SimulationError(
                f"task {self.task.name}: control left the task region "
                f"into {block.name}")
        inst.block = block
        inst.node_done = [PARKED] * len(dfg.nodes)

    def _suspend(self, inst: Instance, continuation):
        """Vacate the tile while waiting for children (queue state SYNC)."""
        entry = inst.entry
        entry.saved_env = dict(inst.env)
        entry.saved_regs = dict(inst.regs)
        entry.resume_block = continuation
        entry.state = SYNC
        self.instances.remove(inst)
        del self._by_uid[inst.uid]
        self.unit.instance_suspended(inst)

    def _finish(self, inst: Instance, retval):
        """Record the return value on the task entry: :meth:`_schedule`
        stores it through ret_ptr (shared-cache return) in the same
        iteration, if it has one."""
        inst.entry.retval = retval
        if inst.entry.ret_ptr is not None and retval is not None:
            inst.phase = EPILOGUE_ISSUE
        else:
            inst.phase = DONE

    def _issue_epilogue_store(self, inst: Instance):
        """Write the return value through ret_ptr."""
        if not self._mem_issued_this_cycle:
            if self.request_out.can_push():
                rettype = self.task.function.return_type
                addr = int(inst.entry.ret_ptr)
                self.unit.analysis_event(
                    "mem", f"store addr={addr} (ret)",
                    {"gid": inst.entry.gid, "op": "store", "addr": addr,
                     "size": rettype.size_bytes, "sid": self.unit.sid,
                     "node": _EPILOGUE_NODE, "inst": None})
                # positional (tag, op, addr, size, data, port): the kernel
                # inlines this call, and keywords double its cost
                self.request_out.push(MemRequest(
                    MemTag(self.unit.sid, self.tile_index, inst.uid,
                           _EPILOGUE_NODE),
                    "store", addr, rettype.size_bytes,
                    value_to_raw(rettype, inst.entry.retval), self.unit.port))
                self._mem_issued_this_cycle = True
                inst.phase = EPILOGUE_WAIT
                inst.wake_at = PARKED  # until the store's response
            else:
                self._mem_blocked = True

    # -- reporting --------------------------------------------------------

    def obs_classify(self, cycle: int):
        """Attribute the cycle just ticked (pure poll-time reads).

        Priority: dataflow fired or a functional unit is mid-latency ->
        busy; a spawn/call or memory issue hit backpressure this cycle ->
        stalled-on-output; otherwise every live instance is parked
        waiting on memory responses or child joins -> stalled-on-input
        (memory before a join, over all instances).
        """
        instances = self.instances
        if not instances:
            return _OBS_IDLE
        if self._fired:
            return _OBS_BUSY
        for inst in instances:
            for done in inst.node_done:
                if cycle < done < AWAIT_MEM:
                    return _OBS_EXECUTE
        if self._spawn_blocked:
            return _OBS_SPAWN_BACKPRESSURE
        if self._mem_blocked:
            return _OBS_MEM_BACKPRESSURE
        joining = False
        for inst in instances:
            done = inst.node_done
            if AWAIT_MEM in done or inst.phase in _EPILOGUE:
                return _OBS_MEMORY
            joining = joining or AWAIT_CALL in done
        return _OBS_CALL_JOIN if joining else _OBS_BUSY

    def stats(self) -> dict:
        busy = self._busy_closed
        if self.instances:  # the open span, through the last cycle run
            busy += self.unit.sim.cycle - self._busy_since
        return {
            "busy_cycles": busy,
            "completed_instances": self.completed_instances,
            "in_flight": len(self.instances),
        }
