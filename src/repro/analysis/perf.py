"""Static performance prediction: an analytical throughput/bottleneck
model over the parallel IR and the elaborated netlist.

The simulator answers "how many cycles does this design point take" in
seconds; the autotuner needs that answer in microseconds for thousands
of (Ntiles, Ntasks, memory) candidates. This module predicts the cycle
count *without running anything*: it combines

* a **work model** — per static task, how many dynamic instances run
  and what each instance costs, from :class:`BlockDFG` critical
  paths, :func:`find_loops` trip counts (constant and affine trips
  evaluated against the entry arguments, a caller-supplied ``size``
  fallback for bounds that arrive through memory) and a branch-aware
  block-weight propagation over the dominator tree;
* **resource bounds** — steady-state initiation-interval style lower
  bounds per component: data-box allocator concurrency (entries over
  the request round trip), per-tile memory issue, tile occupancy with
  an instance-overlap estimate, the single-ported L1, MSHR-limited miss
  service, and the one-grant-per-cycle spawn arbiter, with arbiter-tree
  depths following from the unit count (nothing is elaborated);
* a **serial span** — Amdahl-style critical path through the spawn/sync
  tree (recursion unrolled over the argument recurrence, serial calls
  chained), which is what binds spawner-limited and call-dominated
  designs.

The predicted cycle count is the max of the bounds (plus a fraction of
the runner-up, since near-equal bounds interfere) and each bound is
reported as a ranked bottleneck in the same component/reason vocabulary
as the observability ledgers (``u0.databox``/``allocator-full``,
``T1:task``/``memory``, ``tasknet.spawn_arb``/``spawn-network``, ...),
so a prediction can be cross-checked against
:meth:`repro.obs.Observer.stall_sources`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import SimulationError, TapasError
from repro.ir.basicblock import BasicBlock
from repro.ir.instructions import Alloca, CondBr, Instruction, Load, Store
from repro.ir.opsem import PURE, eval_pure
from repro.ir.values import Constant, Value
from repro.memory.arbiter import tree_levels
from repro.passes.cfg import predecessor_map
from repro.passes.dominators import compute_dominators
from repro.passes.loops import Loop, cell_updates, find_loops, match_counted_loop


# ---------------------------------------------------------------------------
# Model calibration
# ---------------------------------------------------------------------------
#
# Fitted over the workload matrix (``benchmarks/bench_predict_accuracy.py``
# holds the acceptance gates). They are *microarchitectural*, not
# per-workload: round trips follow from channel hops + arbiter levels +
# cache hit latency, the DRAM trip from the board's AXI latency.

#: load/store round trip through data box -> arbiter -> L1 on a hit
HIT_ROUND_TRIP = 12.0
#: extra cycles a miss adds to the average round trip
MISS_EXTRA = 25.0
#: full DRAM round trip for the MSHR-throughput bound
DRAM_ROUND_TRIP = 58.0
#: secondary misses merge into MSHRs but still count; streaming
#: accesses therefore observe more misses than unique lines
SECONDARY_MISS_FACTOR = 1.5
#: miss rate of frame / pointer-stationary traffic (frames recycle
#: through a small reserved region, so most of it hits)
FRAME_MISS_RATE = 0.05
#: pipeline drain between basic blocks of one instance
BLOCK_OVERHEAD = 0.5
#: host spawn -> first dispatch plus final join/drain
STARTUP = 30.0
#: near-equal bounds interfere; credit this share of the runner-up
RUNNERUP_WEIGHT = 0.15
#: fallback trip count when a loop bound is dynamic (e.g. loaded
#: from memory) and no ``size`` hint is given
DEFAULT_SIZE = 64


# ---------------------------------------------------------------------------
# Result types
# ---------------------------------------------------------------------------

@dataclass
class PredictedBottleneck:
    """One resource bound, in the stall-ledger vocabulary."""

    component: str
    reason: str
    bound_cycles: float
    share: float = 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {"component": self.component, "reason": self.reason,
                "bound_cycles": round(self.bound_cycles, 1),
                "share": round(self.share, 4)}


@dataclass
class TaskEstimate:
    """Aggregated work-model output for one task unit."""

    sid: int
    name: str
    instances: float
    mem_ops: float
    est_misses: float
    serial_cycles: float
    hot_node_execs: float
    loop_iters_per_instance: float

    def as_dict(self) -> Dict[str, Any]:
        return {"sid": self.sid, "name": self.name,
                "instances": round(self.instances, 1),
                "mem_ops": round(self.mem_ops, 1),
                "est_misses": round(self.est_misses, 1),
                "serial_cycles": round(self.serial_cycles, 1),
                "hot_node_execs": round(self.hot_node_execs, 1),
                "loop_iters_per_instance":
                    round(self.loop_iters_per_instance, 2)}


@dataclass
class Prediction:
    """A predicted cycle count plus its ranked bottleneck attribution."""

    cycles: int
    entry: str
    bounds: Dict[str, float]
    bottlenecks: List[PredictedBottleneck]
    tasks: Dict[str, TaskEstimate]
    span_cycles: float
    notes: List[str] = field(default_factory=list)

    @property
    def top_bottleneck(self) -> Optional[PredictedBottleneck]:
        return self.bottlenecks[0] if self.bottlenecks else None

    def as_dict(self) -> Dict[str, Any]:
        return {
            "schema": 1,
            "entry": self.entry,
            "predicted_cycles": self.cycles,
            "span_cycles": round(self.span_cycles, 1),
            "bounds": {k: round(v, 1) for k, v in self.bounds.items()},
            "bottlenecks": [b.as_dict() for b in self.bottlenecks],
            "tasks": {name: t.as_dict() for name, t in self.tasks.items()},
            "notes": list(self.notes),
        }

    def render_text(self) -> str:
        lines = [f"predicted cycles for {self.entry}: {self.cycles}"]
        lines.append(f"  serial span: {self.span_cycles:.0f} cycles")
        lines.append("  ranked bottlenecks:")
        for b in self.bottlenecks[:6]:
            lines.append(f"    {b.component:<28} {b.reason:<20} "
                         f"bound={b.bound_cycles:>10.0f}  "
                         f"share={b.share:>5.1%}")
        lines.append("  per-task work model:")
        for est in self.tasks.values():
            lines.append(
                f"    T{est.sid}:{est.name:<24} inst={est.instances:>8.0f} "
                f"mem={est.mem_ops:>8.0f} serial={est.serial_cycles:>9.0f}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Static per-task facts (env-independent)
# ---------------------------------------------------------------------------

class _BlockFacts:
    """Env-independent per-block numbers under one (cache line size,
    node latency table): see :meth:`PerfModel._blocks_for`."""

    __slots__ = ("serial_cp", "mem_ops", "line_fraction")

    def __init__(self, serial_cp: float, mem_ops: int, line_fraction: float):
        self.serial_cp = serial_cp
        self.mem_ops = mem_ops
        self.line_fraction = line_fraction


class _LoopFacts:
    """What the trip evaluator needs to know about one natural loop."""

    __slots__ = ("loop", "cell", "limit", "inclusive", "step", "inits")

    def __init__(self, loop: Loop, cell: Optional[Alloca], limit: Optional[Value],
                 inclusive: bool, step: Optional[int], inits: List[Value]):
        self.loop = loop
        self.cell = cell
        self.limit = limit
        self.inclusive = inclusive
        self.step = step
        #: candidate initial values (stores to the cell outside the loop);
        #: several loops can share one induction cell, so the evaluator
        #: picks the evaluable candidate with the largest trip count
        self.inits = inits


def _stride_line_fraction(inst: Instruction, line_bytes: int) -> float:
    """Expected new-cache-lines per execution of one memory access."""
    pointer = inst.pointer
    from repro.ir.instructions import GEP

    if isinstance(pointer, GEP) and pointer.strides:
        stride = min(abs(s) for s in pointer.strides if s) if any(
            pointer.strides) else 0
        if stride <= 0:
            return FRAME_MISS_RATE
        return min(1.0, stride / float(line_bytes))
    # frame slots / pointer-stationary accesses: mostly hits
    return FRAME_MISS_RATE


# ---------------------------------------------------------------------------
# The model
# ---------------------------------------------------------------------------

class PerfModel:
    """Analytical throughput model for one generated design.

    Build once per design (compiles nothing, elaborates nothing, runs
    nothing: network depth follows from the unit count), then call
    :meth:`predict` per configuration point — prediction is pure
    arithmetic, which is what makes ``repro sweep --evaluator static``
    and the future autotuner viable. CFG, loop and network facts are
    per design; the block facts also depend on the configuration's
    cache line size and node latencies and are derived once per distinct
    pair (``config`` here only names the first one and ``predict``'s
    default).
    """

    def __init__(self, module=None, *, design=None, config=None):
        from repro.accel.config import AcceleratorConfig
        from repro.accel.generator import generate
        from repro.telemetry.spans import TRACER

        with TRACER.span("analysis.perf_build", category="analysis"):
            if design is None:
                if module is None:
                    raise ValueError("PerfModel needs a module or a design")
                design = generate(module)
            self.design = design
            self.graph = design.graph
            self.module = design.module
            self._ref_config = config or AcceleratorConfig()
            self.num_units = len(design.graph.tasks)

            # -- network depth: arbiter-tree levels follow from the unit count
            self.spawn_levels = tree_levels(self.num_units + 1)
            self.mem_levels = tree_levels(self.num_units)

            # -- per-function CFG facts --------------------------------------
            self._loops: Dict[Any, List[_LoopFacts]] = {}
            self._loops_by_header: Dict[BasicBlock, _LoopFacts] = {}
            self._idom: Dict[BasicBlock, Optional[BasicBlock]] = {}
            self._preds: Dict[BasicBlock, List[BasicBlock]] = {}
            self._single_store: Dict[Alloca, Store] = {}
            for function in self.module.functions:
                dom = compute_dominators(function)
                self._idom.update(dom.idom)
                preds = predecessor_map(function)
                for block, ps in preds.items():
                    self._preds[block] = list(ps)
                loops = [self._loop_facts(function, loop)
                         for loop in find_loops(function)]
                self._loops[function] = loops
                for facts in loops:
                    self._loops_by_header[facts.loop.header] = facts
                self._index_single_stores(function)

            # -- per-block facts over the compiled DFGs ----------------------
            self._block_tables: Dict[tuple, Dict[BasicBlock, _BlockFacts]] = {}
            self._blocks_for(self._ref_config)

    # -- construction helpers ---------------------------------------------

    def _blocks_for(self, config) -> Dict[BasicBlock, _BlockFacts]:
        """Block facts under ``config``: critical paths follow its node
        latencies, new lines per access its cache line size. One table
        per distinct pair, so a sweep over tiles or cache size shares
        the one built with the model."""
        latencies = config.latencies
        line_bytes = config.cache.line_bytes
        key = (line_bytes, tuple(sorted(latencies.items())))
        table = self._block_tables.get(key)
        if table is None:
            table = self._block_tables[key] = {
                block: self._block_facts(dfg, latencies, line_bytes)
                for task in self.graph.tasks
                for block, dfg in task.dfgs.items()}
        return table

    def _block_facts(self, dfg, latencies: Dict[str, int],
                     line_bytes: int) -> _BlockFacts:
        def serial_latency(node) -> int:
            if node.kind in ("load", "store"):
                return int(HIT_ROUND_TRIP)
            return latencies.get(node.kind, 1)

        cp = dfg.critical_path(serial_latency) + BLOCK_OVERHEAD
        mem = 0
        lines = 0.0
        for node in dfg.nodes:
            if node.kind in ("load", "store"):
                mem += 1
                lines += _stride_line_fraction(node.inst, line_bytes)
        return _BlockFacts(cp, mem, lines)

    def _index_single_stores(self, function) -> None:
        """Register cells written exactly once behave like local
        constants for the trip/branch evaluator."""
        counts: Dict[Alloca, List[Store]] = {}
        for block in function.blocks:
            for inst in block.instructions:
                if isinstance(inst, Store) and isinstance(
                        inst.pointer, Alloca) and not inst.pointer.in_frame:
                    counts.setdefault(inst.pointer, []).append(inst)
        for cell, stores in counts.items():
            if len(stores) == 1:
                self._single_store[cell] = stores[0]

    def _loop_facts(self, function, loop: Loop) -> _LoopFacts:
        """Extract the ``while (cell <cmp> limit) ... cell += step``
        shape (any limit; of an ``and`` the first compare conjunct bounds
        the trip count from above); anything else keeps ``None`` fields
        and falls back."""
        shape = match_counted_loop(loop)
        if shape is None:
            return _LoopFacts(loop, None, None, False, None, [])
        outside = [b for b in function.blocks if b not in loop.blocks]
        inits = [store.value for store, _ in cell_updates(outside, shape.cell)]
        return _LoopFacts(loop, shape.cell, shape.compare.rhs,
                          shape.compare.predicate == "sle", shape.up_step(),
                          inits)

    # -- prediction --------------------------------------------------------

    def entry_task(self, entry: Optional[str] = None):
        if entry is None:
            return self.graph.tasks[0]
        function = self.module.function(entry)
        if function is None or function not in self.graph.root_for_function:
            raise TapasError(f"no entry task for function {entry!r}")
        return self.graph.root_for_function[function]

    def predict(self, entry: Optional[str] = None, config=None,
                args: Optional[List[Any]] = None,
                size: Optional[int] = None) -> Prediction:
        """Predict the cycle count of one offload.

        ``args`` are the entry function's argument values (scalars drive
        trip counts and recursion depths; pointer values are ignored);
        ``size`` is the fallback trip count for loop bounds the static
        model cannot see (e.g. lengths loaded from memory).
        """
        config = config or self._ref_config
        root = self.entry_task(entry)
        env: Dict[Value, Optional[float]] = {}
        if args is not None:
            for value, arg in zip(root.args, args):
                env[value] = arg if isinstance(arg, (int, float)) else None
        evaluation = _Evaluation(self, self._blocks_for(config),
                                 env_size=size or DEFAULT_SIZE)
        totals = evaluation.totals(root, env)
        span = evaluation.span(root, env) + STARTUP

        bounds: Dict[str, float] = {}
        ranked: List[PredictedBottleneck] = []

        def bound(name: str, component: str, reason: str, value: float):
            bounds[name] = value
            ranked.append(PredictedBottleneck(component, reason, value))

        # -- per-unit bounds ---------------------------------------------
        total_mem = 0.0
        total_misses = 0.0
        total_msgs = 0.0
        estimates: Dict[str, TaskEstimate] = {}
        for task in self.graph.tasks:
            acc = totals.get(task.sid)
            if acc is None or acc.instances <= 0:
                continue
            unit = f"T{task.sid}:{task.name}"
            tp = config.params_for(task.name)
            misses = acc.lines * SECONDARY_MISS_FACTOR
            miss_frac = min(0.9, misses / acc.mem) if acc.mem else 0.0
            round_trip = (HIT_ROUND_TRIP
                          + miss_frac * MISS_EXTRA
                          + (self.mem_levels - 1))
            total_mem += acc.mem
            total_misses += misses
            total_msgs += acc.instances
            loop_iters = (acc.loop_iters / acc.instances
                          if acc.instances else 0.0)
            # a tile keeps up to max_inflight instances resident and the
            # TXU interleaves them node-by-node, so the steady-state
            # initiation interval is latency / inflight
            overlap = tp.max_inflight_per_tile
            estimates[task.name] = TaskEstimate(
                sid=task.sid, name=task.name, instances=acc.instances,
                mem_ops=acc.mem, est_misses=misses,
                serial_cycles=acc.serial, hot_node_execs=acc.hot,
                loop_iters_per_instance=loop_iters)
            if acc.mem:
                bound(f"databox[{task.sid}]", f"u{task.sid}.databox",
                      "allocator-full",
                      acc.mem * round_trip / tp.databox_entries)
                bound(f"memport[{task.sid}]", unit, "memory",
                      acc.mem / max(1, tp.ntiles))
            bound(f"tiles[{task.sid}]", unit, "execute",
                  acc.serial / (max(1, tp.ntiles) * max(1.0, overlap)))
            bound(f"struct[{task.sid}]", unit, "tiles-full",
                  acc.hot / max(1, tp.ntiles))
            bound(f"dispatch[{task.sid}]", unit, "dispatch", acc.instances)

        # -- shared resources --------------------------------------------
        if total_mem:
            bound("l1-port", "L1", "resp-backpressure", total_mem)
            cache = config.cache
            # secondary misses merge into an allocated MSHR, so the
            # DRAM-service bound scales with unique lines, not misses
            bound("mshr", "L1", "mshr-full",
                  (total_misses / SECONDARY_MISS_FACTOR)
                  * DRAM_ROUND_TRIP / max(1, cache.mshr_count))
            bound("dram", "DRAM", "dram-backpressure",
                  total_misses * 1.0)
        if total_msgs > 1:
            bound("spawn-network", "tasknet.spawn_arb", "spawn-network",
                  total_msgs + self.spawn_levels)

        # -- serial span ---------------------------------------------------
        span_component, span_reason = self._span_attribution(
            root, evaluation, totals)
        bound("span", span_component, span_reason, span)

        ranked.sort(key=lambda b: b.bound_cycles, reverse=True)
        top = ranked[0].bound_cycles if ranked else 0.0
        runner = ranked[1].bound_cycles if len(ranked) > 1 else 0.0
        predicted = top + RUNNERUP_WEIGHT * runner + STARTUP
        total_bound = sum(b.bound_cycles for b in ranked) or 1.0
        for b in ranked:
            b.share = b.bound_cycles / total_bound

        notes = list(evaluation.notes)
        return Prediction(
            cycles=int(round(predicted)),
            entry=root.name,
            bounds=bounds,
            bottlenecks=ranked,
            tasks=estimates,
            span_cycles=span,
            notes=notes)

    def _span_attribution(self, root, evaluation: "_Evaluation",
                          totals) -> Tuple[str, str]:
        """Name the span bound the way the ledgers would see it."""
        callers = [t for t in self.graph.tasks
                   if any(edge.is_call for edge in t.spawns.values())]
        call_heavy = any(totals.get(t.sid) and totals[t.sid].instances > 0
                         for t in callers)
        if call_heavy:
            # callers park in call-join while the serial callee runs
            caller = callers[0]
            return f"T{caller.sid}:{caller.name}", "call-join"
        acc = totals.get(root.sid)
        if acc is not None and acc.serial > 0 and acc.mem > 0 and \
                acc.serial_mem / acc.serial > 0.4:
            return f"T{root.sid}:{root.name}", "memory"
        return f"T{root.sid}:{root.name}", "sync-wait"


# ---------------------------------------------------------------------------
# Per-prediction evaluation (env-dependent, memoised)
# ---------------------------------------------------------------------------

class _Totals:
    """Mutable per-task accumulator for the interprocedural roll-up."""

    __slots__ = ("instances", "mem", "lines", "serial", "serial_mem",
                 "hot", "loop_iters")

    def __init__(self):
        self.instances = 0.0
        self.mem = 0.0
        self.lines = 0.0
        self.serial = 0.0
        self.serial_mem = 0.0
        self.hot = 0.0
        self.loop_iters = 0.0

    def add(self, other: "_Totals", mult: float) -> None:
        self.instances += other.instances * mult
        self.mem += other.mem * mult
        self.lines += other.lines * mult
        self.serial += other.serial * mult
        self.serial_mem += other.serial_mem * mult
        self.hot += other.hot * mult
        self.loop_iters += other.loop_iters * mult


class _InstanceProfile:
    __slots__ = ("own", "spawns", "calls")

    def __init__(self):
        self.own = _Totals()
        #: (child task, child env, multiplicity, has ret writeback)
        self.spawns: List[Tuple[Any, Dict, float, bool]] = []
        self.calls: List[Tuple[Any, Dict, float]] = []


_MAX_DEPTH = 64
_MAX_MEMO = 200_000
_MAX_TRIPS = 1 << 22


class _Evaluation:
    """One prediction's env-dependent walk, memoised per (task, env)."""

    def __init__(self, model: PerfModel,
                 blocks: Dict[BasicBlock, _BlockFacts], env_size: int):
        self.model = model
        self.blocks = blocks
        self.size = max(1, int(env_size))
        self.notes: List[str] = []
        self._profiles: Dict[Tuple[int, tuple], _InstanceProfile] = {}
        self._totals: Dict[Tuple[int, tuple], Dict[int, _Totals]] = {}
        self._spans: Dict[Tuple[int, tuple], float] = {}

    # -- value evaluation --------------------------------------------------

    def eval(self, value: Optional[Value], env: Dict[Value, Optional[float]],
             depth: int = 0) -> Optional[float]:
        """Evaluate ``value`` to a number under ``env``, or None: a pure
        instruction through :func:`~repro.ir.opsem.eval_pure`, in the
        model's float domain; an unknown operand, a trap (division by
        zero) or a non-finite result gives None."""
        if value is None or depth > 16:
            return None
        if value in env:
            return env[value]
        if isinstance(value, Constant):
            v = value.value
            return float(v) if isinstance(v, (int, float, bool)) else None
        # lshr stays unknown: seeing through the frontend's ``x / 2**k``
        # unrolls range-splitting recursions one (lo, hi) pair at a time,
        # ~9x the cost of a mergesort prediction (docs/analysis.md)
        if isinstance(value, PURE) and getattr(value, "op", "") != "lshr":
            def resolve(operand):
                known = self.eval(operand, env, depth + 1)
                if known is None:
                    raise SimulationError("unknown operand")
                return known

            try:
                result = float(eval_pure(value, resolve))
            except (SimulationError, ArithmeticError, ValueError):
                return None
            return result if math.isfinite(result) else None
        if isinstance(value, Load):
            cell = value.pointer
            if isinstance(cell, Alloca):
                store = self.model._single_store.get(cell)
                if store is not None:
                    return self.eval(store.value, env, depth + 1)
        return None

    def trips(self, facts: _LoopFacts, env: Dict[Value, Optional[float]]
              ) -> float:
        if facts.cell is None or facts.step is None:
            return float(self.size)
        limit = self.eval(facts.limit, env)
        if limit is None:
            return float(self.size)
        # several loops can share an induction cell (e.g. a merge loop
        # and its cleanup loop); among the evaluable candidate inits,
        # keep the one that bounds the trip count from above
        start = None
        for candidate in facts.inits:
            value = self.eval(candidate, env)
            if value is not None and (start is None or value < start):
                start = value
        if start is None:
            start = 0.0
        span = limit - start + (1 if facts.inclusive else 0)
        trips = max(0.0, -(-span // facts.step))
        return float(min(trips, _MAX_TRIPS))

    # -- per-instance profile ---------------------------------------------

    def _env_key(self, task, env: Dict[Value, Optional[float]]) -> tuple:
        return tuple(env.get(v) for v in task.args)

    def profile(self, task, env: Dict[Value, Optional[float]]
                ) -> _InstanceProfile:
        key = (task.sid, self._env_key(task, env))
        hit = self._profiles.get(key)
        if hit is not None:
            return hit
        prof = _InstanceProfile()
        if len(self._profiles) < _MAX_MEMO:
            self._profiles[key] = prof
        model = self.model
        weights: Dict[BasicBlock, float] = {}
        trip_of: Dict[BasicBlock, float] = {}

        for block in task.blocks:
            if block is task.entry:
                weights[block] = 1.0
                continue
            parent = model._idom.get(block)
            if parent is None or parent not in weights:
                weights[block] = 1.0 if parent is None else 0.0
                continue
            w = weights[parent]
            # leaving loops: undo their multiplicity
            for facts in model._loops.get(task.function, ()):  # small lists
                loop = facts.loop
                if parent in loop.blocks and block not in loop.blocks:
                    t = trip_of.get(loop.header)
                    if t:
                        w /= t
            # entering a loop at its header: multiply by the trip count
            header_facts = model._loops_by_header.get(block)
            if header_facts is not None:
                t = max(self.trips(header_facts, env), 0.0)
                trip_of[block] = t if t else 1.0
                w *= t
            # branch-aware weighting on single-pred successors: an
            # evaluable condition kills the untaken arm outright; an
            # unknown one splits a two-armed diamond 50/50 (a one-armed
            # guard keeps full weight — conservative)
            term = parent.terminator
            if isinstance(term, CondBr) and \
                    term.if_true is not term.if_false:
                preds = model._preds.get(block, [])
                if len(preds) == 1 and preds[0] is parent:
                    cond = self.eval(term.cond, env)
                    if cond is not None:
                        taken = term.if_true if cond else term.if_false
                        if block is not taken:
                            w = 0.0
                    elif parent not in model._loops_by_header:
                        # a loop header's arms are body+exit, not an
                        # if/else diamond — never split those
                        other = (term.if_false if block is term.if_true
                                 else term.if_true)
                        other_preds = model._preds.get(other, [])
                        if len(other_preds) == 1 and \
                                other_preds[0] is parent:
                            w *= 0.5
            weights[block] = w

        own = prof.own
        own.instances = 1.0
        visited = 0.0
        total_execs = 0.0
        for block, w in weights.items():
            if w <= 0.0:
                continue
            facts = self.blocks.get(block)
            if facts is None:
                continue
            visited += 1.0
            total_execs += w
            own.mem += w * facts.mem_ops
            own.lines += w * facts.line_fraction
            own.serial += w * facts.serial_cp
            own.serial_mem += w * facts.mem_ops * HIT_ROUND_TRIP
            own.hot = max(own.hot, w)
        own.loop_iters = max(0.0, total_execs - visited)

        # spawn/call sites weighted by their block
        for edge in task.spawns.values():
            w = weights.get(edge.site.parent, 0.0)
            if w <= 0.0:
                continue
            child_env = self._child_env(edge.target, edge.args, env)
            if edge.is_call:
                prof.calls.append((edge.target, child_env, w))
            else:
                prof.spawns.append(
                    (edge.target, child_env, w, edge.ret_ptr is not None))
        return prof

    def _child_env(self, child, arg_values, env) -> Dict[Value, Optional[float]]:
        child_env: Dict[Value, Optional[float]] = {}
        for formal, actual in zip(child.args, arg_values):
            child_env[formal] = self.eval(actual, env)
        return child_env

    # -- interprocedural roll-ups -----------------------------------------

    def totals(self, task, env: Dict[Value, Optional[float]],
               depth: int = 0) -> Dict[int, _Totals]:
        key = (task.sid, self._env_key(task, env))
        hit = self._totals.get(key)
        if hit is not None:
            return hit
        result: Dict[int, _Totals] = {}
        # pre-publish a placeholder to cut unforeseen cycles
        self._totals[key] = result
        if depth > _MAX_DEPTH:
            self.notes.append(
                f"recursion deeper than {_MAX_DEPTH} in {task.name}; "
                "work model truncated")
            return result
        prof = self.profile(task, env)
        own = result.setdefault(task.sid, _Totals())
        own.add(prof.own, 1.0)
        for child, child_env, mult, has_ret in prof.spawns:
            sub = self.totals(child, child_env, depth + 1)
            for sid, acc in sub.items():
                result.setdefault(sid, _Totals()).add(acc, mult)
            if has_ret:
                # the child's completion writes the return value back
                # through the caller's frame: one store per spawn
                result.setdefault(child.sid, _Totals()).mem += mult
                result[child.sid].lines += (
                    mult * FRAME_MISS_RATE)
        for callee, callee_env, mult in prof.calls:
            sub = self.totals(callee, callee_env, depth + 1)
            for sid, acc in sub.items():
                result.setdefault(sid, _Totals()).add(acc, mult)
        return result

    def span(self, task, env: Dict[Value, Optional[float]],
             depth: int = 0) -> float:
        """Critical path (cycles) of one instance including children."""
        key = (task.sid, self._env_key(task, env))
        hit = self._spans.get(key)
        if hit is not None:
            return hit
        self._spans[key] = 0.0  # cycle guard
        if depth > _MAX_DEPTH:
            return 0.0
        prof = self.profile(task, env)
        total = prof.own.serial
        join_trip = 2.0 * self.model.spawn_levels + 4.0
        for callee, callee_env, mult in prof.calls:
            total += mult * (self.span(callee, callee_env, depth + 1)
                             + join_trip)
        child_span = 0.0
        for child, child_env, mult, _has_ret in prof.spawns:
            if mult <= 0.0:
                continue
            child_span = max(child_span,
                             self.span(child, child_env, depth + 1)
                             + join_trip)
        total += child_span
        self._spans[key] = total
        return total

