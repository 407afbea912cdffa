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
from repro.sim.component import OBS_BUSY, OBS_IDLE, OBS_STALL_IN, OBS_STALL_OUT
from repro.task.program import CompiledTask
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

#: wake_at value of an instance that can only be unblocked by a memory or
#: call response (those reset wake_at to 0 on arrival); the task unit's
#: next_wake treats parked instances as channel-driven, not timer-driven
PARKED = 1 << 60

RUN = "run"
EPILOGUE_ISSUE = "epilogue_issue"
EPILOGUE_WAIT = "epilogue_wait"
DONE = "done"


class Instance:
    """One dynamic task instance in flight on a tile."""

    __slots__ = (
        "uid", "entry", "block", "env", "regs", "node_done", "pending_mem",
        "pending_call", "phase", "retval", "spawned", "block_entry_cycle",
        "wake_at", "park",
    )

    def __init__(self, uid: int, entry: TaskEntry, block, nodes: int):
        self.uid = uid
        self.entry = entry
        self.block = block
        self.env: Dict[Value, Any] = {}
        self.regs: Dict[Alloca, Any] = {}
        #: per node of ``block``'s dataflow graph, the cycle at which its
        #: result is available (:data:`PARKED` until it has fired)
        self.node_done: List[int] = [PARKED] * nodes
        self.pending_mem: Set[int] = set()
        self.pending_call: Set[int] = set()
        self.phase = RUN
        self.retval: Any = None
        self.spawned = 0
        self.block_entry_cycle = 0
        #: scheduling hint: no dataflow progress possible before this cycle
        #: (purely a simulation fast path, not architectural state)
        self.wake_at = 0
        #: compiled kernel only: the resource a blocked instance waits on
        #: (0 none, 1 the tile's memory port, 2 the unit's spawn out-buffer);
        #: the dense and event engines poll and never read it
        self.park = 0


class TXUTile:
    """One execution tile. Not a Component itself — the owning TaskUnit
    ticks it so unit-level arbitration stays in one place."""

    #: optional hook ``(ir_value, observed) -> None`` called whenever a
    #: dataflow node produces a value (or a register cell is written —
    #: then ``ir_value`` is the Alloca).  Used by the range checker to
    #: cross-validate static intervals against execution; None (the
    #: default) costs one attribute test per fired node.
    value_probe = None

    def __init__(self, unit, tile_index: int, compiled: CompiledTask,
                 request_out, response_in, max_inflight: int = 8,
                 latencies: Optional[Dict[str, int]] = None):
        self.unit = unit
        self.tile_index = tile_index
        #: ledger / trace-track name of this tile
        self.obs_name = f"{unit.name}.tile{tile_index}"
        self.compiled = compiled
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
        self.busy_cycles = 0
        self.completed_instances = 0
        #: earliest cycle any instance on this tile can make progress
        #: without new channel traffic (PARKED = channel-driven only);
        #: recomputed every tick, read by TaskUnit.next_wake
        self._min_wake = PARKED

    # -- capacity ------------------------------------------------------------

    def has_capacity(self) -> bool:
        return len(self.instances) < self.max_inflight

    def start(self, uid: int, entry: TaskEntry, cycle: int) -> Instance:
        """Begin a fresh instance or resume a suspended one."""
        resumed = entry.resume_block is not None
        block = entry.resume_block if resumed else self.compiled.entry_block
        inst = Instance(uid, entry, block,
                        len(self.compiled.dfg(block).nodes))
        if resumed:
            inst.env = entry.saved_env or {}
            inst.regs = entry.saved_regs or {}
            entry.resume_block = None
            entry.saved_env = None
            entry.saved_regs = None
        else:
            for value, arg in zip(self.compiled.arg_values, entry.args):
                inst.env[value] = arg
                if self.value_probe is not None:
                    self.value_probe(value, arg)
        inst.block_entry_cycle = cycle
        self.instances.append(inst)
        self._by_uid[inst.uid] = inst
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
            f"value {value.short()} not available in task {self.compiled.name}")

    def _frame_addr(self, inst: Instance, alloca: Alloca) -> int:
        base = self.unit.frame_address(inst.entry.dyid)
        offset = self.compiled.frame_offsets[alloca]
        return base + offset

    # -- clocked behaviour -----------------------------------------------------

    def tick(self, cycle: int):
        self._fired.clear()
        self._mem_issued_this_cycle = False
        self._mem_blocked = False
        self._spawn_blocked = False
        self._pop_memory_response(cycle)
        if self.instances:
            self.busy_cycles += 1
        finished: List[Instance] = []
        min_wake = PARKED
        for inst in list(self.instances):
            if inst.phase == RUN and cycle < inst.wake_at:
                # nothing can fire before wake_at — skip without the call
                # (same early-return _step_instance would take)
                if inst.wake_at < min_wake:
                    min_wake = inst.wake_at
                continue
            wake = self._step_instance(inst, cycle)
            if inst.phase == DONE:
                finished.append(inst)
            elif wake < min_wake:
                min_wake = wake
        self._min_wake = min_wake
        for inst in finished:
            self.instances.remove(inst)
            del self._by_uid[inst.uid]
            self.completed_instances += 1
            self.unit.instance_finished(inst)

    def _pop_memory_response(self, cycle: int):
        if not self.response_in.can_pop():
            return
        self._apply_response(self.response_in.pop(), cycle)

    def _apply_response(self, resp, cycle: int):
        """Retire a popped memory response (channel-free: the compiled
        engine pops the channel itself and delegates here)."""
        inst = self._by_uid.get(resp.tag.instance)
        if inst is None:
            raise SimulationError(
                f"tile {self.tile_index}: response for unknown instance "
                f"{resp.tag.instance}")
        node_idx = resp.tag.node
        if node_idx == _EPILOGUE_NODE:
            inst.phase = DONE
            return
        inst.pending_mem.discard(node_idx)
        inst.wake_at = 0
        node = self.compiled.dfg(inst.block).nodes[node_idx]
        if isinstance(node.inst, Load):
            inst.env[node.inst] = raw_to_value(node.inst.type, resp.data or 0)
            if self.value_probe is not None:
                self.value_probe(node.inst, inst.env[node.inst])
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
        inst.pending_call.discard(node_idx)
        inst.wake_at = 0
        node = self.compiled.dfg(inst.block).nodes[node_idx]
        if not node.inst.type.is_void():
            inst.env[node.inst] = retval
            if self.value_probe is not None:
                self.value_probe(node.inst, retval)
        inst.node_done[node_idx] = cycle

    # -- per-instance dataflow step ------------------------------------------

    def _step_instance(self, inst: Instance, cycle: int) -> int:
        """Advance one instance; returns its event-engine timer
        contribution: the earliest cycle it can progress without new
        channel traffic, or :data:`PARKED` when only channel movement (a
        memory/call response, a backpressure release) can unblock it."""
        if inst.phase == EPILOGUE_ISSUE:
            self._issue_epilogue_store(inst, cycle)
            # either the store was pushed (our own channel movement wakes
            # the unit) or request_out is full (its pop wakes the unit)
            return PARKED
        if inst.phase != RUN:
            return PARKED  # EPILOGUE_WAIT: response_in wakes the unit
        if cycle < inst.wake_at:
            return inst.wake_at  # fast path: nothing fires before wake_at

        dfg = self.compiled.dfg(inst.block)
        nodes = dfg.nodes
        body_count = len(nodes) - 1  # terminator handled at transition

        fired_any = False
        deferred = False     # structural hazard: the node frees next cycle
        blocked_io = False   # backpressure: a no-op until a channel moves
        for node in nodes[:body_count]:
            idx = node.index
            if inst.node_done[idx] != PARKED or idx in inst.pending_mem \
                    or idx in inst.pending_call:
                continue
            if not self._deps_ready(inst, node, cycle):
                continue
            key = (inst.block, idx)
            if key in self._fired:
                deferred = True
                continue  # structural hazard: one firing per node per cycle
            if self._fire(inst, node, cycle):
                self._fired.add(key)
                fired_any = True
            else:
                blocked_io = True  # full channel/buffer: retry when freed

        outcome = self._maybe_transition(inst, dfg, cycle)
        if (fired_any or outcome == "moved") and self.unit.sim is not None:
            self.unit.sim.note_activity()
        if inst.phase != RUN or outcome == "moved" or fired_any or deferred \
                or blocked_io or outcome == "blocked":
            # wake_at stays hot so any unit wake re-steps the instance;
            # the timer contribution distinguishes real next-cycle work
            # from backpressure retries that cannot succeed until the
            # blocking channel moves (which itself wakes the unit)
            inst.wake_at = cycle + 1
            if inst.phase != RUN:
                return PARKED
            if outcome == "moved" or fired_any or deferred:
                return cycle + 1
            return PARKED  # blocked_io / spawn-blocked terminator
        # quiescent: wake when the earliest in-flight node finishes, or on
        # a memory/call response (those reset wake_at to 0 on arrival)
        future = [d for d in inst.node_done if cycle < d < PARKED]
        if future:
            inst.wake_at = min(future)
        elif inst.pending_mem or inst.pending_call:
            inst.wake_at = PARKED
        else:
            inst.wake_at = cycle + 1
        return inst.wake_at

    def _deps_ready(self, inst: Instance, node, cycle: int) -> bool:
        done = inst.node_done
        for dep in node.deps:
            if done[dep] > cycle:
                return False
        return True

    def _latency(self, kind: str) -> int:
        return self.latencies.get(kind, 1)

    def _fire(self, inst: Instance, node, cycle: int) -> bool:
        """Execute one dataflow node; returns False if it must retry
        (e.g. a full memory channel)."""
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
                    env[ir] = self._frame_addr(inst, ir)
                else:
                    env[ir] = RegSlot(ir)
        else:
            env[ir] = eval_pure(ir, lambda value: self._resolve(inst, value))

        if self.value_probe is not None:
            if kind == "regwrite":
                self.value_probe(ir.pointer, inst.regs[ir.pointer])
            elif kind != "nop" and ir in env:
                self.value_probe(ir, env[ir])

        inst.node_done[node.index] = cycle + self._latency(kind)
        return True

    def _fire_memory(self, inst: Instance, node, cycle: int) -> bool:
        if self._mem_issued_this_cycle:
            return False
        if not self.request_out.can_push():
            self._mem_blocked = True
            return False
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
        inst.pending_mem.add(node.index)
        return True

    def _fire_call(self, inst: Instance, node, cycle: int) -> bool:
        ir = node.inst
        spec = self.compiled.call_specs[ir]
        args = tuple(self._resolve(inst, v) for v in spec.arg_values)
        token = (self.tile_index, inst.uid, node.index)
        if not self.unit.issue_call(spec.dest_sid, args, inst.entry, token):
            self._spawn_blocked = True
            return False
        inst.pending_call.add(node.index)
        return True

    # -- block transition ------------------------------------------------------

    def _maybe_transition(self, inst: Instance, dfg, cycle: int) -> Optional[str]:
        """Returns "moved" on a state change, "blocked" when the terminator
        is ready but back-pressured, None when the block is still draining."""
        nodes = dfg.nodes
        term_node = nodes[-1]
        # every body node must be complete
        for node in nodes[:-1]:
            if inst.node_done[node.index] > cycle:
                return None
        if inst.pending_mem or inst.pending_call:
            return None
        # terminator dependencies (spawn-arg marshalling etc.)
        if not self._deps_ready(inst, term_node, cycle):
            return None

        term = term_node.inst
        if isinstance(term, Detach):
            if not self._fire_spawn(inst, term):
                return "blocked"  # spawn network backpressure
            self._enter_block(inst, term.continuation, cycle)
        elif isinstance(term, Sync):
            if inst.entry.child_count > 0:
                self._suspend(inst, term.continuation)
            else:
                # nothing outstanding: the sync is still a join point
                self.unit.analysis_event("sync-pass",
                                         f"gid={inst.entry.gid}",
                                         {"gid": inst.entry.gid})
                self._enter_block(inst, term.continuation, cycle)
        elif isinstance(term, Br):
            self._enter_block(inst, term.dest, cycle)
        elif isinstance(term, CondBr):
            taken = self._resolve(inst, term.cond)
            self._enter_block(inst, term.if_true if taken else term.if_false,
                              cycle)
        elif isinstance(term, Reattach):
            self._finish(inst, None, cycle)
        elif isinstance(term, Ret):
            retval = (self._resolve(inst, term.value)
                      if term.value is not None else None)
            self._finish(inst, retval, cycle)
        else:
            raise SimulationError(f"TXU cannot handle terminator {term.opcode}")
        return "moved"

    def _fire_spawn(self, inst: Instance, detach: Detach) -> bool:
        spec = self.compiled.spawn_specs[detach]
        args = tuple(self._resolve(inst, v) for v in spec.arg_values)
        ret_ptr = (int(self._resolve(inst, spec.ret_ptr_value))
                   if spec.ret_ptr_value is not None else None)
        if not self.unit.issue_spawn(spec.dest_sid, args, inst.entry, ret_ptr):
            self._spawn_blocked = True
            return False
        inst.spawned += 1
        return True

    def _enter_block(self, inst: Instance, block, cycle: int):
        if not self.compiled.owns_block(block):
            raise SimulationError(
                f"task {self.compiled.name}: control left the task region "
                f"into {block.name}")
        inst.block = block
        inst.node_done = [PARKED] * len(self.compiled.dfg(block).nodes)
        inst.pending_mem = set()
        inst.pending_call = set()
        inst.block_entry_cycle = cycle + 1

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

    def _finish(self, inst: Instance, retval, cycle: int):
        inst.retval = retval
        if inst.entry.ret_ptr is not None and retval is not None:
            inst.phase = EPILOGUE_ISSUE
            self._issue_epilogue_store(inst, cycle)
        else:
            inst.phase = DONE

    def _issue_epilogue_store(self, inst: Instance, cycle: int):
        """Write the return value through ret_ptr (shared-cache return)."""
        if self._mem_issued_this_cycle:
            return
        if not self.request_out.can_push():
            self._mem_blocked = True
            return
        rettype = self.compiled.task.function.return_type
        tag = MemTag(self.unit.sid, self.tile_index, inst.uid, _EPILOGUE_NODE)
        self.unit.analysis_event(
            "mem", f"store addr={int(inst.entry.ret_ptr)} (ret)",
            {"gid": inst.entry.gid, "op": "store",
             "addr": int(inst.entry.ret_ptr), "size": rettype.size_bytes,
             "sid": self.unit.sid, "node": _EPILOGUE_NODE, "inst": None})
        self.request_out.push(MemRequest(
            tag=tag, op="store", addr=int(inst.entry.ret_ptr),
            size=rettype.size_bytes,
            data=value_to_raw(rettype, inst.retval),
            port=self.unit.port))
        self._mem_issued_this_cycle = True
        inst.phase = EPILOGUE_WAIT

    # -- reporting --------------------------------------------------------

    def obs_classify(self, cycle: int):
        """Attribute the cycle just ticked (pure poll-time reads).

        Priority: dataflow fired or a functional unit is mid-latency ->
        busy; a spawn/call or memory issue hit backpressure this cycle ->
        stalled-on-output; otherwise every live instance is parked
        waiting on memory responses or child joins -> stalled-on-input.
        """
        if not self.instances:
            return OBS_IDLE, None
        if self._fired:
            return OBS_BUSY, None
        for inst in self.instances:
            for done in inst.node_done:
                if cycle < done < PARKED:
                    return OBS_BUSY, "execute"
        if self._spawn_blocked:
            return OBS_STALL_OUT, "spawn-backpressure"
        if self._mem_blocked:
            return OBS_STALL_OUT, "mem-backpressure"
        if any(inst.pending_mem or inst.phase in (EPILOGUE_ISSUE, EPILOGUE_WAIT)
               for inst in self.instances):
            return OBS_STALL_IN, "memory"
        if any(inst.pending_call for inst in self.instances):
            return OBS_STALL_IN, "call-join"
        return OBS_BUSY, None

    def stats(self) -> dict:
        return {
            "busy_cycles": self.busy_cycles,
            "completed_instances": self.completed_instances,
            "in_flight": len(self.instances),
        }
