"""The six workloads of the end-to-end ledger.

Every workload is a fixed list of ops, run one at a time (closed loop,
single driver). A *pass* runs each op once, in an order drawn from the
benchmark seed. Each workload can run a pass three ways:

* ``run_pass``   — tracing off, through the whole-call public API
  (``Workload.run``, ``SweepRunner.run``); end-to-end metrics come from
  these passes only;
* ``trace_pass`` — the harness calls the layers' public functions step
  by step and records a span around each (see :mod:`spans`);
* ``base_pass``  — the untraced twin of ``trace_pass`` that
  ``trace.overhead_ratio`` is measured against (differs from
  ``run_pass`` only where the traced pass must run inline, on
  ``sweep_cold``).

An op's *outcome* is a small JSON-able dict with ``ok`` plus every
deterministic result field (cycles, return value, verdict codes, sizes).
The first pass's outcomes are the reference; an op fails when it raises,
when ``ok`` is false, or when its outcome differs from the reference —
in a later pass or in the stepwise traced run.

Sizes are chosen so a pass takes about a second on a 2-core host (see
README.md, "Sizing evidence"); ``smoke`` shrinks everything to the
minimum that still touches every layer.
"""

from __future__ import annotations

import glob
import os
import random
import shutil
import statistics
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

import repro.sim.compile as kernel_compiler
from repro.accel import ARRIA_10, Accelerator, AcceleratorConfig, generate
from repro.analysis import (
    SEVERITY_ERROR,
    PerfChecker,
    PerfModel,
    analyze_design,
    lint_design,
)
from repro.exp import (
    ResultCache,
    SweepRunner,
    config_from_spec,
    register_evaluator,
    workload_points,
)
from repro.frontend import analyze, lower_program, parse
from repro.memory.cache import CacheParams
from repro.obs import Observer, export_chrome_trace, validate_chrome_trace
from repro.passes import optimize_module
from repro.reports import estimate_mhz, estimate_resources, fpga_power_watts
from repro.rtl import emit_design, emit_top_verilog
from repro.sim import Trace
from repro.workloads import REGISTRY, scale_source

from hostclock import HostClock
from spans import NULL, Tracer

ROOT = Path(__file__).resolve().parents[2]
MAX_CYCLES = 50_000_000
#: ``RunResult.stats["engine"]`` keys that hold host time, not results
HOST_TIME_KEYS = ("host_seconds", "sim_cycles_per_host_second")


@dataclass
class PassResult:
    #: seconds spent inside the ops (harness bookkeeping excluded)
    wall: float = 0.0
    #: the same in reference seconds (see :mod:`hostclock`)
    scaled_wall: float = 0.0
    #: per-op latency, measured and in reference seconds
    latencies: List[float] = field(default_factory=list)
    scaled: List[float] = field(default_factory=list)
    #: cycles, programs or points completed — the workload's unit of work
    work: int = 0
    sim_cycles: int = 0
    outcomes: Dict[str, dict] = field(default_factory=dict)

    def finish(self, clock: HostClock) -> None:
        """Totals of a pass whose every op went through ``clock.add``."""
        self.scaled = clock.drain()
        self.wall = sum(self.latencies)
        self.scaled_wall = sum(self.scaled)


def guarded(run: Callable[[], dict]) -> dict:
    """Run one op; an exception is a failed op, never a dead benchmark."""
    try:
        return run()
    except Exception as exc:
        return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}


# ---------------------------------------------------------------------------
# stepwise layer calls shared by the traced ops
# ---------------------------------------------------------------------------

def count_instructions(module) -> int:
    return sum(1 for function in module.functions
               for _inst in function.instructions())


def compile_steps(tr, source: str, name: str):
    """frontend -> ir -> passes -> accel.generate, one span per step."""
    with tr.span("frontend.parse"):
        program = parse(source)
    with tr.span("frontend.sema"):
        program = analyze(program)
    with tr.span("frontend.lower"):
        module = lower_program(program, name)
    lowered = count_instructions(module)
    with tr.span("passes.optimize"):
        optimize_module(module)
    with tr.span("accel.generate"):
        design = generate(module, optimize=False)
    tr.count("frontend.source_bytes", len(source.encode("utf-8")))
    optimized = count_instructions(module)
    tr.count("ir.instructions", optimized)
    tr.count("passes.instructions_removed", lowered - optimized)
    return module, design


def elaborate_step(tr, design, config, trace=None, observer=None):
    with tr.span("accel.elaborate"):
        acc = Accelerator(design, config, trace=trace, observer=observer)
    tr.count("accel.task_units", len(acc.units))
    tr.count("accel.components", len(acc.sim.components))
    tr.count("accel.channels", len(acc.sim.channels))
    return acc


def simulate_steps(tr, workload, config, scale: int, observed: bool = False,
                   trace_path: Optional[Path] = None) -> Dict[str, Any]:
    """``Workload.run`` taken apart: the same calls in the same order
    (plus one explicit ``generate_source`` so codegen is timed on its
    own), returning the fields of a ``WorkloadResult``."""
    _module, design = compile_steps(tr, workload.source, workload.name)
    observer = Observer() if observed else None
    trace = Trace(enabled=True) if observed else None
    acc = elaborate_step(tr, design, config, trace=trace, observer=observer)
    with tr.span("workloads.prepare"):
        prepared = workload.prepare(acc.memory, scale)
    if not observed:
        with tr.span("sim.codegen"):
            source = kernel_compiler.generate_source(acc.sim)
        tr.count("sim.kernel_source_bytes", len(source))
    with tr.span("obs.observed_run" if observed else "sim.run"):
        result = acc.run(prepared.function, prepared.args,
                         max_cycles=MAX_CYCLES)
    with tr.span("workloads.check"):
        correct = prepared.check(acc.memory, result.retval)
    fields = {"cycles": result.cycles, "retval": result.retval,
              "correct": correct, "work_items": prepared.work_items,
              "stats": result.stats}
    if observed:
        fields.update(export_steps(tr, trace_path, observer, trace))
    stats = result.stats
    tr.count("sim.cycles", result.cycles)
    for key in ("ticks_executed", "component_ticks",
                "fast_forwarded_cycles"):
        tr.count("sim." + key, stats["engine"][key])
    tr.count("task.spawns_routed", stats["network"]["spawns_routed"])
    tr.count("task.joins_routed", stats["network"]["joins_routed"])
    tr.count("memory.cache_hits", stats["cache"]["hits"])
    tr.count("memory.cache_misses", stats["cache"]["misses"])
    tr.count("memory.dram_accesses", stats["dram"]["accesses"])
    return fields


def export_steps(tr, path: Path, observer, trace) -> Dict[str, Any]:
    with tr.span("obs.export"):
        document = export_chrome_trace(str(path), observer=observer,
                                       trace=trace)
    with tr.span("obs.validate"):
        problems = validate_chrome_trace(document)
    size = path.stat().st_size
    path.unlink()
    tr.count("obs.trace_bytes", size)
    tr.count("obs.validate_problems", len(problems))
    return {"trace_bytes": size, "trace_problems": len(problems)}


def sim_outcome(fields: Dict[str, Any]) -> dict:
    outcome = {"ok": bool(fields["correct"])
               and not fields.get("trace_problems"),
               "cycles": fields["cycles"], "retval": fields["retval"]}
    if "trace_bytes" in fields:
        outcome["trace_bytes"] = fields["trace_bytes"]
    return outcome


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------

class Bench:
    """One workload: owns its ops, its scratch directory and, in the
    traced run, the tracer its wrappers record into."""

    name = ""
    #: what ``work_per_s`` counts on this workload
    work_unit = ""
    jobs = 1

    def __init__(self, seed: int, smoke: bool, workdir: Path,
                 clock: HostClock):
        self.smoke = smoke
        self.workdir = workdir
        self.clock = clock
        self.rng = random.Random(seed)
        #: tracing off until a traced pass installs a real tracer
        self.tracer = NULL
        #: kernel digests loaded since the last ``clear_kernel_cache``
        self.loaded_kernels: set = set()

    def run_pass(self) -> PassResult:
        raise NotImplementedError

    def base_pass(self) -> PassResult:
        return self.run_pass()

    def trace_pass(self, tracer: Tracer) -> PassResult:
        raise NotImplementedError

    def extras(self, base: List[PassResult]) -> Dict[str, float]:
        """Per-layer numbers measured beside the traced passes
        (``base`` are the base passes)."""
        return {}

    def watch_kernel_loads(self) -> None:
        """Time ``prepare_kernel`` where the simulator calls it, and sort
        each call into cold (first load of a digest since the cache was
        cleared), warm, or a counted fallback to the event engine."""
        real = kernel_compiler.prepare_kernel

        def prepare_kernel(sim):
            start = perf_counter()
            kernel, reason = real(sim)
            end = perf_counter()
            if kernel is None:
                self.tracer.count("sim.compiled_fallbacks")
            elif sim.compiled_digest in self.loaded_kernels:
                self.tracer.record("sim.kernel_load_warm", start, end)
            else:
                self.loaded_kernels.add(sim.compiled_digest)
                self.tracer.record("sim.kernel_load_cold", start, end)
            return kernel, reason

        kernel_compiler.prepare_kernel = prepare_kernel


class OpBench(Bench):
    """A workload whose pass is a shuffled walk over ``self.ops``."""

    ops: List[Any] = []

    def run_op(self, op) -> dict:
        raise NotImplementedError

    def trace_op(self, op, tr: Tracer) -> dict:
        raise NotImplementedError

    def run_pass(self) -> PassResult:
        return self._walk(self.run_op)

    def trace_pass(self, tracer: Tracer) -> PassResult:
        self.tracer = tracer

        def traced(op):
            tracer.op = op.id
            with tracer.span("harness.op"):
                return self.trace_op(op, tracer)

        return self._walk(traced)

    def _walk(self, run) -> PassResult:
        order = list(self.ops)
        self.rng.shuffle(order)
        result = PassResult()
        self.clock.begin()
        for op in order:
            start = perf_counter()
            outcome = guarded(lambda: run(op))
            result.latencies.append(perf_counter() - start)
            self.clock.add(result.latencies[-1])
            result.outcomes[op.id] = outcome
            result.sim_cycles += outcome.get("cycles", 0)
        result.finish(self.clock)
        result.work = (result.sim_cycles if self.work_unit == "cycles"
                       else len(order))
        return result


@dataclass(frozen=True)
class SimOp:
    workload: str
    scale: int
    tiles: int
    membound: bool = False
    observed: bool = False

    @property
    def id(self) -> str:
        return f"{self.workload}@s{self.scale}t{self.tiles}"

    def config(self, engine: str = "compiled") -> AcceleratorConfig:
        overrides: Dict[str, Any] = {}
        if self.membound:
            # Arria 10, 1 KB cache, 1 MSHR, 270-cycle DRAM: misses
            # serialise and most cycles are quiescent (fast-forwarded)
            overrides = {"board": ARRIA_10, "dram_latency_cycles": 270,
                         "cache": CacheParams(size_bytes=1024, mshr_count=1)}
        return REGISTRY.get(self.workload).default_config(
            self.tiles, engine=engine, **overrides)


class SimBench(OpBench):
    """source -> checked result through ``Workload.run``."""

    work_unit = "cycles"
    #: the op the engine slice reruns under dense/event/compiled
    slice_op: SimOp

    def run_op(self, op: SimOp) -> dict:
        workload = REGISTRY.get(op.workload)
        if not op.observed:
            result = workload.run(op.config(), scale=op.scale,
                                  max_cycles=MAX_CYCLES)
            return sim_outcome(vars(result))
        observer, trace = Observer(), Trace(enabled=True)
        result = workload.run(op.config(), scale=op.scale,
                              max_cycles=MAX_CYCLES, trace=trace,
                              observer=observer)
        fields = dict(vars(result))
        fields.update(export_steps(NULL, self._trace_path(op), observer,
                                   trace))
        return sim_outcome(fields)

    def trace_op(self, op: SimOp, tr: Tracer) -> dict:
        return sim_outcome(simulate_steps(
            tr, REGISTRY.get(op.workload), op.config(), op.scale,
            observed=op.observed, trace_path=self._trace_path(op)))

    def _trace_path(self, op: SimOp) -> Path:
        return self.workdir / f"{op.id}.trace.json"

    def extras(self, base: List[PassResult]) -> Dict[str, float]:
        return engine_slice(self.slice_op)


def engine_slice(op: SimOp) -> Dict[str, float]:
    """One op under every engine: host speed of each, and how many
    disagree with the dense oracle on cycles, result or any
    architectural stat."""
    workload = REGISTRY.get(op.workload)
    metrics: Dict[str, float] = {}
    seen = {}
    for engine in ("dense", "event", "compiled"):
        acc = workload.build(op.config(engine))
        prepared = workload.prepare(acc.memory, op.scale)
        start = perf_counter()
        result = acc.run(prepared.function, prepared.args,
                         max_cycles=MAX_CYCLES)
        host = perf_counter() - start
        stats = {k: v for k, v in result.stats.items() if k != "engine"}
        seen[engine] = (result.cycles, result.retval, stats,
                        prepared.check(acc.memory, result.retval))
        metrics[f"sim.{engine}.cycles_per_host_s"] = result.cycles / host
    metrics["sim.engine_mismatches"] = sum(
        1 for engine in ("event", "compiled")
        if seen[engine] != seen["dense"] or not seen[engine][3])
    return metrics


class SimHot(SimBench):
    name = "sim_hot"

    def __init__(self, *args):
        super().__init__(*args)
        scales = ({"fibonacci": 1, "mergesort": 1, "stencil": 1, "dedup": 1}
                  if self.smoke else
                  {"fibonacci": 5, "mergesort": 4, "stencil": 2, "dedup": 8})
        self.ops = [SimOp(name, scale, tiles=2)
                    for name, scale in scales.items()]
        self.slice_op = SimOp("fibonacci", 1 if self.smoke else 2, tiles=2)


class SimMembound(SimBench):
    name = "sim_membound"

    def __init__(self, *args):
        super().__init__(*args)
        scale, tiles = (2, (1, 2)) if self.smoke else (16, (1, 2, 4))
        self.ops = [SimOp("saxpy", scale, t, membound=True) for t in tiles]
        self.slice_op = SimOp("saxpy", 1 if self.smoke else 4, tiles=2,
                              membound=True)


class SimObserved(SimBench):
    name = "sim_observed"

    def __init__(self, *args):
        super().__init__(*args)
        scales = ({"fibonacci": 1, "saxpy": 1} if self.smoke else
                  {"fibonacci": 1, "stencil": 1, "saxpy": 4})
        self.ops = [SimOp(name, scale, tiles=2, observed=True)
                    for name, scale in scales.items()]

    def extras(self, base: List[PassResult]) -> Dict[str, float]:
        """The same ops without the observer: the base of
        ``obs.observer_slowdown`` (kernel stepping only; kernel loads are
        child spans of ``sim.run`` and drop out of its self time)."""
        plain = Tracer()
        self.tracer = plain
        for op in self.ops:
            simulate_steps(plain, REGISTRY.get(op.workload), op.config(),
                           op.scale)
        return {"obs.plain_run_s": plain.self_times()["sim.run"]}


@dataclass(frozen=True)
class StaticOp:
    program: str
    source: str
    entry: Optional[str]
    tiles: int

    @property
    def id(self) -> str:
        return f"{self.program}@t{self.tiles}"


#: error codes each program must report, and only these (the three
#: negative fixtures under examples/programs; everything else is clean)
KNOWN_ERRORS = {"racy_sum.cilk": {"TAP-RACE-001"},
                "deadlock_ring.cilk": {"TAP-NET-004"}}
#: ``dead_task.cilk`` must additionally carry this warning
DEAD_TASK_WARNING = "TAP-NET-002"


class StaticFlow(OpBench):
    """HLS "compile time": every static layer, zero simulated cycles."""

    name = "static_flow"
    work_unit = "programs"

    def __init__(self, *args):
        super().__init__(*args)
        programs = [(w.name, w.source, w.entry) for w in REGISTRY.all()]
        for path in sorted(glob.glob(
                str(ROOT / "examples" / "programs" / "*.cilk"))):
            programs.append((Path(path).name, Path(path).read_text(), None))
        for k in self._chain_lengths():
            programs.append((f"scale_micro{k}", scale_source(k), "scale"))
        self.ops = [StaticOp(name, source, entry, tiles)
                    for name, source, entry in programs
                    for tiles in ((1,) if self.smoke else (1, 4))]

    def _chain_lengths(self) -> List[int]:
        """Three seeded adder-chain lengths in [10, 50] that always sum
        to 90: the seed moves work between programs without changing the
        pass's total (every static layer is linear in chain length), so
        runs on different seeds stay comparable."""
        while True:
            a, b = self.rng.randint(10, 50), self.rng.randint(10, 50)
            if 10 <= 90 - a - b <= 50:
                return [a, b, 90 - a - b]

    def run_op(self, op: StaticOp) -> dict:
        return self.trace_op(op, NULL)

    def trace_op(self, op: StaticOp, tr) -> dict:
        module, design = compile_steps(tr, op.source, op.program)
        config = AcceleratorConfig(default_ntiles=op.tiles)
        entry = op.entry or module.functions[0].name
        with tr.span("analysis.races"):
            races = analyze_design(design)
        with tr.span("analysis.lint"):
            lint = lint_design(design, entry=entry, config=config)
        with tr.span("analysis.perf_build"):
            model = PerfModel(design=design, config=config)
        with tr.span("analysis.perf_predict"):
            prediction = model.predict(entry=entry, config=config, size=64)
        acc = elaborate_step(tr, design, config)
        with tr.span("sim.codegen"):
            kernel = kernel_compiler.generate_source(acc.sim)
        with tr.span("reports.estimate"):
            report = estimate_resources(acc)
            mhz = estimate_mhz(config.board, report.alms)
            watts = fpga_power_watts(report.alms, report.brams, mhz)
        with tr.span("rtl.emit"):
            rtl = emit_design(design) + emit_top_verilog(design)

        findings = list(races) + list(lint)
        errors = sorted({d.code for d in findings
                         if d.severity == SEVERITY_ERROR})
        verdict_ok = set(errors) == KNOWN_ERRORS.get(op.program, set()) and (
            op.program != "dead_task.cilk"
            or DEAD_TASK_WARNING in {d.code for d in findings})
        tr.count("analysis.verdict_mismatches", 0 if verdict_ok else 1)
        tr.count("sim.kernel_source_bytes", len(kernel))
        tr.count("reports.alms", report.alms)
        tr.count("reports.brams", report.brams)
        tr.count("rtl.rtl_bytes", len(rtl))
        return {"ok": verdict_ok, "errors": errors,
                "predicted_cycles": prediction.cycles,
                "alms": report.alms, "brams": report.brams, "watts": watts,
                "kernel_bytes": len(kernel), "rtl_bytes": len(rtl)}


def masked(value: dict) -> dict:
    """A sweep record's value without its host-time fields."""
    stats = dict(value["stats"])
    stats["engine"] = {k: v for k, v in stats["engine"].items()
                       if k not in HOST_TIME_KEYS}
    return dict(value, stats=stats)


def point_id(spec: dict) -> str:
    small = "+4k" if spec.get("overrides") else ""
    return f"{spec['workload']}@t{spec['tiles']}{small}"


class SweepBench(Bench):
    """7 workloads x tiles x {default cache, 4 KB / 2 MSHR} at scale 1
    under the compiled engine — the shape of every paper figure."""

    work_unit = "points"
    jobs = 2

    def __init__(self, *args):
        super().__init__(*args)
        self.tiles = (1,) if self.smoke else (1, 4)
        self.caches = ((None,) if self.smoke else
                       (None, {"cache": {"size_bytes": 4096,
                                         "mshr_count": 2}}))
        self.points = self._grid("workload")

    def _grid(self, evaluator: str) -> List[dict]:
        points: List[dict] = []
        for overrides in self.caches:
            points += workload_points(
                REGISTRY.names(), tiles=self.tiles, scales=1,
                engines=("compiled",), overrides=overrides,
                evaluator=evaluator)
        return points

    def _shuffled(self, points: List[dict]) -> List[dict]:
        order = list(points)
        self.rng.shuffle(order)
        return order

    def _cache(self, root: Path) -> ResultCache:
        cache = ResultCache(root)
        if self.tracer is not NULL:
            for method in ("key", "get", "put"):
                setattr(cache, method,
                        self._timed("exp." + method, getattr(cache, method)))
        return cache

    def _timed(self, name: str, call):
        def timed(*args, **kwargs):
            start = perf_counter()
            try:
                return call(*args, **kwargs)
            finally:
                self.tracer.record(name, start, perf_counter())
        return timed

    def _count_summary(self, summary: dict) -> None:
        cache = summary["telemetry"]["cache"]
        self.tracer.count("exp.cache_hits", cache["hits"])
        self.tracer.count("exp.cache_misses", cache["misses"])
        self.tracer.count("exp.corruption_evictions",
                          cache["corruption_evictions"])
        self.tracer.count("exp.point_errors", summary["errors"])


class SweepCold(SweepBench):
    """The write side: every point computed, nothing reused."""

    name = "sweep_cold"
    STEPWISE = "e2e.stepwise"

    def __init__(self, *args):
        super().__init__(*args)
        register_evaluator(
            self.STEPWISE, self._stepwise_point, replace=True,
            program_text=lambda spec: REGISTRY.get(spec["workload"]).source)

    def _stepwise_point(self, spec: dict) -> dict:
        """The built-in ``workload`` evaluator taken apart into spans."""
        self.tracer.op = point_id(spec)
        workload = REGISTRY.get(spec["workload"])
        config = config_from_spec(workload, spec)
        fields = simulate_steps(self.tracer, workload, config, spec["scale"])
        return {"workload": workload.name, "engine": config.engine,
                "tiles": spec["tiles"], "scale": spec["scale"],
                "cycles": fields["cycles"], "correct": fields["correct"],
                "work_items": fields["work_items"],
                "retval": fields["retval"], "stats": fields["stats"]}

    def _sweep(self, points: List[dict], jobs: int) -> PassResult:
        """One sweep in a fresh world: empty result cache, empty kernel
        mirror directory, no kernel modules loaded."""
        world = Path(tempfile.mkdtemp(dir=self.workdir))
        os.environ["REPRO_CACHE_DIR"] = str(world / "repro-cache")
        kernel_compiler.clear_kernel_cache()
        self.loaded_kernels.clear()
        runner = SweepRunner(jobs=jobs, cache=self._cache(world / "results"))
        points = self._shuffled(points)
        result = PassResult()
        self.clock.begin()
        start = perf_counter()
        with self.tracer.span("exp.runner"):
            swept = runner.run(points)
        result.wall = perf_counter() - start
        self.clock.add(result.wall)
        result.scaled_wall, = self.clock.drain()
        shutil.rmtree(world)
        self.summary = swept.summary
        for record in swept.records:
            ok = record["status"] == "ok" and record["value"]["correct"]
            outcome = {"ok": ok}
            if ok:
                outcome["value"] = masked(record["value"])
                result.sim_cycles += record["value"]["cycles"]
            else:
                outcome["error"] = (record["error"] or {}).get("message")
            result.outcomes[point_id(record["spec"])] = outcome
            result.latencies.append(record["seconds"])
        # points are timed inside the workers; they share the pass's scale
        scale = result.scaled_wall / result.wall
        result.scaled = [seconds * scale for seconds in result.latencies]
        result.work = len(points)
        return result

    def run_pass(self) -> PassResult:
        return self._sweep(self.points, jobs=self.jobs)

    def base_pass(self) -> PassResult:
        return self._sweep(self.points, jobs=1)

    def trace_pass(self, tracer: Tracer) -> PassResult:
        self.tracer = tracer
        with tracer.span("harness.op"):
            result = self._sweep(self._grid(self.STEPWISE), jobs=1)
        self._count_summary(self.summary)
        return result

    def extras(self, base: List[PassResult]) -> Dict[str, float]:
        """One normal ``jobs=2`` sweep for the pool telemetry and the
        parallel speed-up over the inline base passes; the static
        predictor scored against observed simulation on the
        default-cache half of the grid."""
        inline_wall = statistics.median(p.wall for p in base)
        parallel = self.run_pass()
        workers = self.summary["telemetry"]["workers"].values()
        report = PerfChecker().check_matrix(
            REGISTRY.all(), tiles=self.tiles, scales=(1,),
            max_cycles=MAX_CYCLES)
        return {
            "exp.worker_utilization":
                sum(w["utilization"] for w in workers) / len(workers),
            "exp.queue_wait_mean_s":
                self.summary["telemetry"]["queue_wait_seconds"]["mean"],
            "exp.jobs1_wall_s": inline_wall,
            "exp.jobs2_wall_s": parallel.wall,
            "exp.parallel_speedup": inline_wall / parallel.wall,
            "analysis.perf_median_abs_err": report.median_abs_rel_error,
            "analysis.perf_spearman": report.spearman,
            "analysis.perf_class_match": report.class_match_rate,
        }


class SweepWarm(SweepBench):
    """The read side: the same grid replayed from a full cache by fresh
    ``SweepRunner`` + ``ResultCache`` pairs. One op is ten replays (about
    20 ms): a single 2 ms replay is too short for its latency tail to
    say anything but how the host's timer interrupts fell."""

    name = "sweep_warm"
    REPLAYS_PER_OP = 10

    def __init__(self, *args):
        super().__init__(*args)
        self.ops_per_pass = 1 if self.smoke else 25
        self.cache_root = self.workdir / "warm-results"
        filled = SweepRunner(jobs=self.jobs,
                             cache=ResultCache(self.cache_root)
                             ).run(self.points)
        if filled.errors:
            raise RuntimeError(f"cache fill failed: {filled.errors[0]}")
        self.fresh = {point_id(r["spec"]): r["value"]
                      for r in filled.records}

    def run_pass(self) -> PassResult:
        result = PassResult()
        self.clock.begin()
        for op in range(self.ops_per_pass):
            orders = [self._shuffled(self.points)
                      for _ in range(self.REPLAYS_PER_OP)]
            self.tracer.op = f"replays{op}"
            start = perf_counter()
            with self.tracer.span("harness.op"):
                outcome = guarded(lambda: self._replay(orders))
            result.latencies.append(perf_counter() - start)
            self.clock.add(result.latencies[-1])
            result.outcomes[self.tracer.op] = self._verify(outcome)
        result.finish(self.clock)
        result.work = (self.ops_per_pass * self.REPLAYS_PER_OP
                       * len(self.points))
        return result

    def _replay(self, orders: List[List[dict]]) -> dict:
        swept = []
        for points in orders:
            with self.tracer.span("exp.runner"):
                runner = SweepRunner(jobs=self.jobs,
                                     cache=self._cache(self.cache_root))
                swept.append(runner.run(points))
        return {"ok": True, "swept": swept}

    def _verify(self, outcome: dict) -> dict:
        """Every record a hit and field-identical to the fresh one."""
        hits = 0
        for swept in outcome.pop("swept", ()):
            self._count_summary(swept.summary)
            hits += swept.summary["cache_hits"]
            outcome["ok"] &= all(
                r["cache_hit"] and r["status"] == "ok"
                and r["value"] == self.fresh[point_id(r["spec"])]
                for r in swept.records)
        return dict(outcome, hits=hits)

    def trace_pass(self, tracer: Tracer) -> PassResult:
        self.tracer = tracer
        return self.run_pass()


BENCHES = {bench.name: bench for bench in (
    SimHot, SimMembound, SimObserved, StaticFlow, SweepCold, SweepWarm)}
