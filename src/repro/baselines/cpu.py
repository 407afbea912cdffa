"""Multicore CPU baseline: the paper's Intel i7 quad-core running Cilk.

The evaluation (§V, Figs 13/16/17) compares TAPAS accelerators against the
*same* Cilk programs on an i7-3.4 GHz. We mirror that by executing the
same IR under a software cost model:

1. A functional interpreter walks the IR, building the dynamic task tree
   and charging per-instruction costs (superscalar-adjusted cycles).
2. Loop-spawned children are grain-coarsened the way the Cilk runtime
   coarsens ``cilk_for`` (recursive range splitting: ~8 chunks per core
   rather than one task per iteration).
3. Runtime on P cores follows the greedy-scheduler bound the Cilk papers
   prove: ``T_P <= T_1 / P + T_inf`` (work / span).

Spawn overhead dominates fine-grain tasks — which is exactly the effect
Fig 13's flat "Software" line shows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.errors import SimulationError
from repro.ir.instructions import (
    Alloca,
    Br,
    Call,
    CondBr,
    Detach,
    Load,
    Reattach,
    Ret,
    Store,
    Sync,
)
from repro.ir.module import Module
from repro.ir.opsem import RegSlot, eval_pure
from repro.ir.values import Constant, GlobalVariable, Value
from repro.memory.backing import MainMemory
from repro.passes.dataflow_graph import classify


@dataclass
class CPUCostModel:
    """Per-operation costs in core clock cycles (IPC-adjusted)."""

    frequency_ghz: float = 3.4
    cores: int = 4
    op_cycles: Dict[str, float] = field(default_factory=lambda: {
        "alu": 0.4,        # multi-issue integer
        "gep": 0.3,
        "mul": 1.0,
        "div": 8.0,
        "falu": 1.0,
        "fmul": 1.2,
        "fdiv": 8.0,
        "load": 1.6,       # big L1/L2: near-hit average
        "store": 1.0,
        "regread": 0.2,    # register-allocated after mem2reg
        "regwrite": 0.2,
        "nop": 0.0,
        "control": 0.6,
        "call": 6.0,
        "spawn": 0.0,      # charged separately below
        "sync": 0.0,
    })
    #: parent-side cost of cilk_spawn (frame push, deque ops)
    spawn_overhead_cycles: float = 110.0
    #: child-side cost (steal / resume, cache cold start)
    sched_overhead_cycles: float = 220.0
    #: per-stage-task bookkeeping of an on-the-fly pipeline (Cilk-P
    #: throttling + ordered-stage tracking; Lee et al. 2015 report
    #: per-iteration pipeline overheads in the ~0.5 microsecond range).
    #: Charged to function tasks spawned one-per-iteration from a dynamic
    #: loop — the dedup pattern — which cannot be grain-coarsened.
    pipeline_overhead_cycles: float = 1400.0
    #: cilk_for grain coarsening: ~8 stealable chunks per core
    loop_chunks_per_core: int = 8

    @property
    def loop_chunks(self) -> int:
        return self.loop_chunks_per_core * self.cores

    def cycles_to_seconds(self, cycles: float) -> float:
        return cycles / (self.frequency_ghz * 1e9)


@dataclass
class TaskNode:
    """One dynamic task in the executed tree.

    ``kind`` drives the overhead model:
      * ``region_loop`` — cilk_for-style iteration region: the Cilk
        runtime grain-coarsens these (divide-and-conquer range split);
      * ``direct_loop`` — a function spawned per-iteration from a dynamic
        loop (the Cilk-P pipeline pattern): full per-task overhead plus
        pipeline bookkeeping, never coarsened;
      * ``plain`` — an ordinary cilk_spawn (recursion etc.).
    """

    name: str
    work_cycles: float = 0.0            # own straight-line cost
    children: List["TaskNode"] = field(default_factory=list)
    kind: str = "plain"

    def total_tasks(self) -> int:
        return 1 + sum(c.total_tasks() for c in self.children)


@dataclass
class CPURunResult:
    retval: Any
    root: TaskNode
    t1_cycles: float       # total work
    tinf_cycles: float     # span (critical path)
    tp_cycles: float       # greedy bound on P cores
    dynamic_tasks: int

    def time_seconds(self, model: CPUCostModel) -> float:
        return model.cycles_to_seconds(self.tp_cycles)


class MulticoreCPU:
    """Functional interpreter + Cilk cost model over a module."""

    MAX_STEPS = 50_000_000

    def __init__(self, module: Module, memory: Optional[MainMemory] = None,
                 model: Optional[CPUCostModel] = None):
        self.module = module
        self.memory = memory or MainMemory()
        self.model = model or CPUCostModel()
        self._steps = 0
        self._loop_detaches_cache: Dict[Any, bool] = {}
        for var in module.globals:
            if var.address is None:
                var.address = self.memory.alloc(var.size_bytes)

    # -- public API ----------------------------------------------------------

    def run(self, function_name: str, args) -> CPURunResult:
        function = self.module.function(function_name)
        if function is None:
            raise SimulationError(f"no function {function_name}")
        self._steps = 0
        root = TaskNode(name=function_name)
        retval = self._run_function(function, list(args), root)
        t1 = self._work(root)
        tinf = self._span(root)
        tp = t1 / self.model.cores + tinf
        return CPURunResult(retval=retval, root=root, t1_cycles=t1,
                            tinf_cycles=tinf, tp_cycles=tp,
                            dynamic_tasks=root.total_tasks())

    # -- cost aggregation --------------------------------------------------

    def _effective_children(self, node: TaskNode):
        """Group coarsenable loop children into Cilk-style grains."""
        loop_kids = [c for c in node.children if c.kind == "region_loop"]
        other_kids = [c for c in node.children if c.kind != "region_loop"]
        if not loop_kids:
            return other_kids, []
        chunks = min(len(loop_kids), self.model.loop_chunks)
        per_chunk = max(1, len(loop_kids) // chunks)
        grouped = []
        for start in range(0, len(loop_kids), per_chunk):
            grouped.append(loop_kids[start:start + per_chunk])
        return other_kids, grouped

    def _child_overhead(self, child: TaskNode) -> float:
        extra = (self.model.pipeline_overhead_cycles
                 if child.kind == "direct_loop" else 0.0)
        return (self.model.spawn_overhead_cycles
                + self.model.sched_overhead_cycles + extra)

    def _work(self, node: TaskNode) -> float:
        singles, grains = self._effective_children(node)
        total = node.work_cycles
        for child in singles:
            total += self._child_overhead(child) + self._work(child)
        for grain in grains:
            total += (self.model.spawn_overhead_cycles
                      + self.model.sched_overhead_cycles)
            total += sum(self._work(c) for c in grain)
        return total

    def _span(self, node: TaskNode) -> float:
        singles, grains = self._effective_children(node)
        best_child = 0.0
        for child in singles:
            best_child = max(best_child,
                             self.model.sched_overhead_cycles + self._span(child))
        for grain in grains:
            grain_span = (self.model.sched_overhead_cycles
                          + sum(self._span(c) for c in grain))
            best_child = max(best_child, grain_span)
        spawn_cost = (len(singles) + len(grains)) * self.model.spawn_overhead_cycles
        return node.work_cycles + spawn_cost + best_child

    # -- interpretation ---------------------------------------------------

    def _charge(self, node: TaskNode, inst):
        node.work_cycles += self.model.op_cycles.get(classify(inst), 0.5)

    def _resolve(self, env, value: Value):
        if isinstance(value, Constant):
            return value.value
        if isinstance(value, GlobalVariable):
            return value.address
        if value in env:
            return env[value]
        raise SimulationError(f"CPU interp: {value.short()} unavailable")

    def _run_function(self, function, args, node: TaskNode):
        env = {}
        regs = {}
        for formal, actual in zip(function.arguments, args):
            env[formal] = actual
        return self._run_region(function.entry, env, regs, node,
                                stop_reattach=False)

    def _run_region(self, entry, env, regs, node: TaskNode,
                    stop_reattach: bool):
        """Interpret from ``entry`` until ret (function) or reattach
        (detached region). Returns the ret value (or None)."""
        block = entry
        while True:
            for inst in block.body():
                self._step(inst, env, regs, node)
            term = block.terminator
            self._charge(node, term)
            self._steps += 1
            if self._steps > self.MAX_STEPS:
                raise SimulationError("CPU interpretation exceeded step limit")

            if isinstance(term, Ret):
                return self._resolve(env, term.value) if term.value is not None else None
            if isinstance(term, Reattach):
                if not stop_reattach:
                    raise SimulationError("reattach outside detached region")
                return None
            if isinstance(term, Br):
                block = term.dest
            elif isinstance(term, CondBr):
                block = term.if_true if self._resolve(env, term.cond) else term.if_false
            elif isinstance(term, Sync):
                block = term.continuation
            elif isinstance(term, Detach):
                child = TaskNode(name=f"{node.name}.child",
                                 kind=self._detach_kind(term))
                node.children.append(child)
                # children run to completion here (functionally equivalent:
                # parent syncs before consuming results)
                self._run_region(term.detached, env, regs, child,
                                 stop_reattach=True)
                block = term.continuation
            else:
                raise SimulationError(f"CPU interp: bad terminator {term.opcode}")

    def _detach_kind(self, detach: Detach) -> str:
        cached = self._loop_detaches_cache.get(detach)
        if cached is not None:
            return cached
        from repro.passes.loops import find_loops

        function = detach.parent.parent
        in_loop = any(detach.parent in loop.blocks
                      for loop in find_loops(function))
        if not in_loop:
            kind = "plain"
        else:
            # a detached region of just [call (, store)?; reattach] is
            # `spawn f(...)` — the Cilk-P pipeline pattern when looped
            body = detach.detached.body()
            is_direct = (isinstance(detach.detached.terminator, Reattach)
                         and len(body) in (1, 2)
                         and isinstance(body[0], Call))
            kind = "direct_loop" if is_direct else "region_loop"
        self._loop_detaches_cache[detach] = kind
        return kind

    def _step(self, inst, env, regs, node: TaskNode):
        self._charge(node, inst)
        self._steps += 1
        if self._steps > self.MAX_STEPS:
            raise SimulationError("CPU interpretation exceeded step limit")

        if isinstance(inst, Alloca):
            if inst.in_frame:
                # software: just a stack slot; allocate a real address
                env[inst] = self.memory.alloc(
                    max(1, inst.allocated_type.size_bytes))
            else:
                env[inst] = RegSlot(inst)
        elif isinstance(inst, Load):
            pointer = self._resolve(env, inst.pointer)
            if isinstance(pointer, RegSlot):
                env[inst] = regs.get(pointer.alloca, 0)
            else:
                env[inst] = self.memory.read_value(pointer, inst.type)
        elif isinstance(inst, Store):
            pointer = self._resolve(env, inst.pointer)
            value = self._resolve(env, inst.value)
            if isinstance(pointer, RegSlot):
                regs[pointer.alloca] = value
            else:
                self.memory.write_value(pointer, inst.value.type, value)
        elif isinstance(inst, Call):
            # serial call: same worker, costs roll into this node
            args = [self._resolve(env, a) for a in inst.args]
            result = self._run_function(inst.callee, args, node)
            if not inst.type.is_void():
                env[inst] = result
        else:
            env[inst] = eval_pure(inst, lambda value: self._resolve(env, value))


def run_on_cpu(module: Module, function: str, args,
               memory: Optional[MainMemory] = None,
               model: Optional[CPUCostModel] = None) -> CPURunResult:
    """Convenience wrapper: interpret + cost one offload."""
    return MulticoreCPU(module, memory, model).run(function, args)
