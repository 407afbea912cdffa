"""Differential tests: event and compiled engines vs the dense oracle.

Every example program and every registered workload must produce
bit-identical cycle counts, return values and architectural stats under
all three engines — ``stats()["engine"]`` (host wall-clock) is the only
key allowed to differ. ``repro diff`` runs the same comparison on one
source file (``tests/test_cli.py::TestDiff``).
"""

import glob
import os

import pytest

from repro.accel import AcceleratorConfig, build_accelerator
from repro.accel.config import TaskUnitParams
from repro.frontend import compile_source
from repro.ir.types import I32
from repro.obs import Observer
from repro.task.task_unit import TaskUnit
from repro.workloads import REGISTRY
from tests.oracles.races import race_check

EXAMPLES = sorted(
    path for path in glob.glob(os.path.join(
        os.path.dirname(__file__), "..", "..", "examples", "programs",
        "*.cilk"))
    # deadlock_* fixtures cannot terminate by design; their engine parity
    # is covered by the postmortem-equality property tests
    if "deadlock_" not in os.path.basename(path))


def _strip(stats):
    stats = dict(stats)
    stats.pop("engine", None)
    return stats


def _run_example(path, engine, tiles):
    from repro.cli import _default_profile_args

    with open(path) as handle:
        source = handle.read()
    name = os.path.splitext(os.path.basename(path))[0]
    module = compile_source(source, name)
    accel = build_accelerator(
        module, AcceleratorConfig(default_ntiles=tiles, engine=engine))
    function = module.functions[0]
    args = _default_profile_args(function, accel.memory, 8)
    result = accel.run(function.name, args)
    return result.cycles, result.retval, _strip(result.stats)


@pytest.mark.parametrize("engine", ["event", "compiled"])
@pytest.mark.parametrize("path", EXAMPLES,
                         ids=[os.path.basename(p) for p in EXAMPLES])
def test_example_programs_agree(path, engine):
    for tiles in (1, 2, 3, 4):
        assert _run_example(path, "dense", tiles) \
            == _run_example(path, engine, tiles), f"{tiles} tile(s)"


@pytest.mark.parametrize("engine", ["event", "compiled"])
@pytest.mark.parametrize("name", REGISTRY.names())
def test_workloads_agree(name, engine):
    workload = REGISTRY.get(name)
    dense = workload.run(workload.default_config(2, engine="dense"))
    other = workload.run(workload.default_config(2, engine=engine))
    assert dense.correct and other.correct
    assert dense.cycles == other.cycles
    assert dense.retval == other.retval
    assert _strip(dense.stats) == _strip(other.stats)


@pytest.mark.parametrize("name, config", [
    ("stencil", dict(default_ntiles=3)),
    ("dedup", dict(default_ntiles=3)),
    ("stencil", dict(unit_params={"stencil.t0": TaskUnitParams(ntiles=3)})),
    ("dedup", dict(unit_params={"compress_chunk": TaskUnitParams(ntiles=3)})),
], ids=["stencil-3", "dedup-3", "stencil-3+1", "dedup-3+1+1"])
def test_odd_and_heterogeneous_tile_counts_agree(name, config):
    """The compiled kernel hands each tile its index and memory port as
    stepper-factory arguments; a mix-up would misroute memory responses
    only when units differ in tile count or the count is not the usual
    power of two."""
    workload = REGISTRY.get(name)
    tiles = sorted(len(c.tiles)
                   for c in workload.build(AcceleratorConfig(**config))
                   .sim.components if isinstance(c, TaskUnit))
    assert (tiles[0], tiles[-1]) == (config.get("default_ntiles", 1), 3)
    outcomes = {}
    for engine in ("dense", "event", "compiled"):
        result = workload.run(AcceleratorConfig(engine=engine, **config))
        assert result.correct
        if engine == "compiled":
            assert result.stats["engine"]["compiled_fallback"] is None
        outcomes[engine] = (result.cycles, result.retval,
                            _strip(result.stats))
    assert outcomes["dense"] == outcomes["event"] == outcomes["compiled"]


def _dense_equals_compiled(run):
    """``run(engine)`` under the oracle and the kernel (which must not
    have declined the design); returns the common return value."""
    outcomes = {}
    for engine in ("dense", "compiled"):
        result = run(engine)
        if engine == "compiled":
            assert result.stats["engine"]["compiled_fallback"] is None
        outcomes[engine] = (result.cycles, result.retval,
                            _strip(result.stats))
    assert outcomes["dense"] == outcomes["compiled"]
    return outcomes["dense"][1]


@pytest.mark.parametrize("name", ["saxpy", "stencil", "fibonacci"])
def test_scratchpad_memory_model_agrees(name):
    """The Fig 8 alternative backend (``bench_ablation_memory_model.py``
    runs it on the kernel): the inlined scratchpad section against the
    component's own ``tick``."""
    workload = REGISTRY.get(name)

    def run(engine):
        result = workload.run(workload.default_config(
            2, engine=engine, memory_model="scratchpad"))
        assert result.correct and "scratchpad" in result.stats
        return result

    _dense_equals_compiled(run)


def _cast_chain_module():
    """``casts(x)``: every cast kind the frontend never emits, chained so
    each feeds the next: trunc -> sext / zext -> sitofp -> fptosi."""
    from repro.ir import Function, IRBuilder, Module, const, verify_module
    from repro.ir.types import F32, I8

    module = Module("casts")
    function = Function("casts", [I32], ["x"], I32)
    module.add_function(function)
    b = IRBuilder(function.add_block("entry"))
    narrow = b.cast("trunc", function.arguments[0], I8)
    signed = b.cast("sext", narrow, I32)
    unsigned = b.cast("zext", narrow, I32)
    scaled = b.fmul(b.cast("sitofp", signed, F32), const(2.5, F32))
    b.ret(b.add(b.cast("fptosi", scaled, I32), unsigned))
    verify_module(module)
    return module


def _engines_and_cpu_agree(make_module, check, **config):
    """``check(memory, execute)`` puts its inputs in ``memory``, calls
    ``execute(entry, args)``, asserts on what it left behind and returns
    the result: under dense and compiled (which must agree on everything)
    and under the CPU baseline. Returns the engines' return value."""
    from repro.baselines import run_on_cpu
    from repro.memory.backing import MainMemory

    def run(engine):
        accel = build_accelerator(make_module(),
                                  AcceleratorConfig(engine=engine, **config))
        return check(accel.memory, accel.run)

    retval = _dense_equals_compiled(run)
    memory = MainMemory(1 << 20)
    check(memory, lambda entry, args: run_on_cpu(
        make_module(), entry, args, memory=memory))
    return retval


@pytest.mark.parametrize("x", [1000, -13, 200])
def test_cast_chain_agrees(x):
    """``Cast`` nodes agree between the engines, ``eval_cast`` and the
    CPU baseline, and mean what they say: ``zext`` reads the source bits
    as unsigned (200 -> trunc i8 is -56 -> zext is 200 again, not -56)."""
    from repro.ir.opsem import eval_cast
    from repro.ir.types import F32, I8

    narrow = eval_cast("trunc", x, I32, I8)
    unsigned = eval_cast("zext", narrow, I8, I32)
    assert (narrow, unsigned) == ((x + 128) % 256 - 128, x % 256)
    scaled = eval_cast("sitofp", eval_cast("sext", narrow, I8, I32),
                       I32, F32) * 2.5

    def check(memory, execute):
        result = execute("casts", [x])
        assert result.retval == eval_cast("fptosi", scaled, F32, I32) \
            + unsigned
        return result

    _engines_and_cpu_agree(_cast_chain_module, check)


FLOAT_KERNEL = """
func fgap(x: f32*, y: f32*, n: i32) {
  cilk_for (var i: i32 = 0; i < n; i = i + 1) {
    if (x[i] < y[i]) {
      y[i] = (y[i] - x[i]) / x[i];
    } else {
      y[i] = x[i] - y[i];
    }
  }
}
"""


def test_float_sub_div_compare_agree():
    """The f32 operators no shipped program uses (``-``, ``/``, ``<``):
    the engines, the CPU baseline and ``ir/opsem.py`` give one answer,
    division by zero (``x[0]``) included."""
    from repro.ir.opsem import eval_binop, eval_fcmp
    from repro.ir.types import F32

    xs = [0.5 * i for i in range(8)]
    ys = [3.0 - 0.25 * i * i for i in range(8)]
    expected = [
        eval_binop("fdiv", F32, eval_binop("fsub", F32, y, x), x)
        if eval_fcmp("olt", x, y) else eval_binop("fsub", F32, x, y)
        for x, y in zip(xs, ys)]
    assert expected[:2] == [float("inf"), 4.5] and expected[-1] == 12.75

    def check(memory, execute):
        x, y = memory.alloc_array(F32, xs), memory.alloc_array(F32, ys)
        result = execute("fgap", [x, y, len(xs)])
        assert memory.read_array(y, F32, len(ys)) == expected
        return result

    _engines_and_cpu_agree(lambda: compile_source(FLOAT_KERNEL, "fgap"),
                           check, default_ntiles=2)


def _select_minmax_module():
    """``mix(out, a, b, p, q)``: the pure ops no shipped program reaches —
    select, smin/smax, srem, fmin/fmax and (value-preserving) bitcasts."""
    from repro.ir import Function, IRBuilder, Module, const, verify_module
    from repro.ir.types import F32, ptr

    module = Module("mix")
    function = Function("mix", [ptr(F32), I32, I32, F32, F32],
                        ["out", "a", "b", "p", "q"], I32)
    module.add_function(function)
    b = IRBuilder(function.add_block("entry"))
    out, a, a2, p, q = function.arguments
    low, high = b.binop("smin", a, a2), b.binop("smax", a, a2)
    spread = b.fsub(b.binop("fmax", p, q), b.binop("fmin", p, q))
    b.store(spread, b.cast("bitcast", out, ptr(F32)))
    b.ret(b.select(b.fcmp("olt", p, q), b.srem(b.sub(high, low), const(7)),
                   b.cast("bitcast", low, I32)))
    verify_module(module)
    return module


@pytest.mark.parametrize("a, b, p, q", [(3, -7, 1.5, -2.25),
                                        (-7, 3, -2.25, 1.5),
                                        (5, 5, 0.1, 0.1)],
                         ids=["descending", "ascending", "equal"])
def test_select_minmax_bitcast_agree(a, b, p, q):
    from repro.ir.opsem import to_f32
    from repro.ir.types import F32

    def check(memory, execute):
        out = memory.alloc_array(F32, [0.0])
        result = execute("mix", [out, a, b, p, q])
        assert result.retval == ((max(a, b) - min(a, b)) % 7 if p < q
                                 else min(a, b))
        assert memory.read_array(out, F32, 1) == [
            to_f32(to_f32(max(p, q)) - to_f32(min(p, q)))]
        return result

    _engines_and_cpu_agree(_select_minmax_module, check)


def _instrumented_views(accel, observer, trace):
    """Everything an instrumented run leaves behind, in comparable form
    (a payload's ``inst`` is an IR object of that run's own module)."""
    import io

    from repro.obs import export_chrome_trace

    exported = io.StringIO()
    export_chrome_trace(exported, observer=observer, trace=trace)
    events = [
        (e.cycle, e.source, e.kind, e.detail,
         e.payload and {key: repr(value) if key == "inst" else value
                        for key, value in e.payload.items()}, e.seq)
        for e in trace.events]
    return {
        "observer": observer.as_dict(),
        "ledgers": {name: ledger.timeline
                    for name, ledger in observer.ledgers.items()},
        "probes": {name: probe.occupancy_timeline
                   for name, probe in observer.probes.items()},
        "exported": exported.getvalue(),
        "events": events,
        "races": [conflict.describe()
                  for conflict in race_check(trace)],
    }


def _instrumented_configs():
    from repro.accel import ARRIA_10
    from repro.memory.cache import CacheParams

    configs = [(name, 1, {"ntiles": tiles})
               for name in REGISTRY.names() for tiles in (1, 2, 3)]
    # miss-bound: most cycles sit inside long fast-forwarded spans
    configs.append(("saxpy", 4, {
        "ntiles": 2, "board": ARRIA_10, "dram_latency_cycles": 270,
        "cache": CacheParams(size_bytes=1024, mshr_count=1)}))
    # ... and more instances wait on the one memory port than move
    # (the compiled kernel parks them; the stall reasons must not notice)
    configs.extend(("saxpy", 2, dict(configs[-1][2], ntiles=tiles))
                   for tiles in (1, 4))
    # the Fig 8 backend: the scratchpad's own sensitivity / wake / classify
    configs.append(("saxpy", 1, {"ntiles": 2, "memory_model": "scratchpad"}))
    # the banked L1: address- and tag-routed demux lambdas, index_shift
    configs.append(("saxpy", 2, {"ntiles": 2, "cache": CacheParams(banks=2)}))
    # a direct-mapped 512 B / 2 MSHR cache: dirty evictions (the writeback
    # path) and both structural stalls of the request port (CACHE_CORNERS)
    configs.append(("mergesort", 1, {"ntiles": 4, "cache": CacheParams(
        size_bytes=512, associativity=1, mshr_count=2)}))
    return configs


#: what the last configuration above must have exercised under the oracle
CACHE_CORNERS = ("mshr-full", "dram-backpressure")


def _instrumented_id(name, scale, overrides):
    if "memory_model" in overrides:
        return f"{name}-{overrides['memory_model']}"
    if "cache" not in overrides:
        return f"{name}-{overrides['ntiles']}"
    if "board" not in overrides:
        return f"{name}-banked" if overrides["cache"].banks > 1 \
            else f"{name}-writebacks"
    return f"{name}-membound" + f"-{overrides['ntiles']}" * (scale != 4)


INSTRUMENTED = _instrumented_configs()


@pytest.mark.parametrize(
    "name, scale, overrides", INSTRUMENTED,
    ids=[_instrumented_id(*config) for config in INSTRUMENTED])
def test_instrumented_views_agree(name, scale, overrides):
    """Observer ledgers and probes, the exported Perfetto bytes and the
    analysis trace (events with their ``seq``, hence ``spawn_seq`` and the
    race checker's happens-before) and the movement log are one thing
    under all three engines; the compiled leg produces them from the
    generated kernel itself, every plumbing section of it derived from the
    component's own ``tick``."""
    from repro.sim import Trace

    workload = REGISTRY.get(name)
    views = {}
    for engine in ("dense", "event", "compiled"):
        observer, trace = Observer(), Trace(enabled=True)
        accel = workload.build(
            workload.default_config(engine=engine, **overrides),
            trace=trace, observer=observer)
        movement = accel.sim.enable_movement_log()
        prepared = workload.prepare(accel.memory, scale)
        result = accel.run(prepared.function, prepared.args)
        assert prepared.check(accel.memory, result.retval)
        if engine == "compiled":
            assert result.stats["engine"]["compiled_fallback"] is None
        views[engine] = _instrumented_views(accel, observer, trace)
        views[engine]["movement"] = list(movement)
        views[engine]["result"] = (result.cycles, result.retval,
                                   _strip(result.stats))
    for engine in ("event", "compiled"):
        for what, expected in views["dense"].items():
            assert views[engine][what] == expected, (engine, what)
    if (name, scale, overrides) == INSTRUMENTED[-1]:
        assert result.stats["cache"]["writebacks"] > 0
        assert set(CACHE_CORNERS) <= set(observer.stall_breakdown())


@pytest.mark.parametrize("fan", [1, 3])
@pytest.mark.parametrize("levels", [0, 1, 2])
def test_pipe_depths_and_fan_ins_agree(levels, fan):
    """Arbiter and demux pipes at the depths no shipped design elaborates
    (``tree_levels`` is 1 up to four inputs) and at fan-in / fan-out 1 and
    3, through a one-slot channel that backpressures the arbiter."""
    from repro.memory.arbiter import Demux, RoundRobinArbiter
    from repro.sim import Simulator

    def run(engine):
        sim = Simulator(engine=engine)
        movement = sim.enable_movement_log()
        inputs = [sim.add_channel(f"in{i}", 4) for i in range(fan)]
        middle = sim.add_channel("middle", 1)
        outputs = [sim.add_channel(f"out{i}", 8) for i in range(fan)]
        sim.add_component(RoundRobinArbiter(
            "arbiter", inputs, middle, levels=levels))
        sim.add_component(Demux("demux", middle, outputs, levels=levels,
                                route=lambda message: message % fan))
        for i, channel in enumerate(inputs):
            for j in range(4):
                channel.push(4 * i + j)
                channel.commit()
        cycles = sim.run(lambda: sum(map(len, outputs)) == 4 * fan)
        if engine == "compiled":
            assert sim.compiled_fallback is None
        return (cycles, _strip(sim.stats()), list(movement),
                [list(channel._items) for channel in outputs])

    assert run("dense") == run("event") == run("compiled")


def test_race_check_agrees_on_racy_program():
    """The racy fixture's dynamic conflicts (spawn tree, syncs and every
    access come from the trace) are the same under all three engines."""
    from repro.sim import Trace

    path = next(p for p in EXAMPLES if p.endswith("racy_sum.cilk"))
    with open(path) as handle:
        source = handle.read()
    found = {}
    for engine in ("dense", "event", "compiled"):
        trace = Trace(enabled=True)
        accel = build_accelerator(
            compile_source(source, "racy_sum"),
            AcceleratorConfig(default_ntiles=2, engine=engine), trace=trace)
        a = accel.memory.alloc_array(I32, list(range(1, 9)))
        out = accel.memory.alloc_array(I32, [0])
        accel.run("racy_sum", [a, out, 8])
        if engine == "compiled":
            assert accel.sim.compiled_fallback is None
        found[engine] = [conflict.describe() for conflict
                         in race_check(trace)]
    assert found["dense"]
    assert found["dense"] == found["event"] == found["compiled"]


def test_memory_bound_config_agrees():
    """The fast-forward sweet spot: tiny cache, single MSHR, long DRAM
    latency. Exactly the regime where a scheduling bug would skew
    counts."""
    from repro.accel import ARRIA_10
    from repro.memory.cache import CacheParams

    workload = REGISTRY.get("saxpy")
    outcomes = {}
    for engine in ("dense", "event", "compiled"):
        config = workload.default_config(
            2, engine=engine, board=ARRIA_10,
            cache=CacheParams(size_bytes=1024, mshr_count=1),
            dram_latency_cycles=200)
        result = workload.run(config, scale=4)
        outcomes[engine] = (result.cycles, result.retval,
                            _strip(result.stats))
        assert result.correct
    assert outcomes["dense"] == outcomes["event"]
    assert outcomes["dense"] == outcomes["compiled"]
    # and the event engine actually skipped something on this workload
    event_config = workload.default_config(
        2, engine="event", board=ARRIA_10,
        cache=CacheParams(size_bytes=1024, mshr_count=1),
        dram_latency_cycles=200)
    result = workload.run(event_config, scale=4)
    assert result.stats["engine"]["fast_forwarded_cycles"] > 0


def test_deadlock_postmortem_parity():
    """A program that deadlocks must fail at the same cycle with the
    same postmortem attribution under both engines."""
    from repro.errors import DeadlockError
    from repro.sim import Component, Simulator

    class Starved(Component):
        def __init__(self, name, inp):
            super().__init__(name)
            self.inp = inp

        def tick(self, cycle):
            if self.inp.can_pop():
                self.inp.pop()

        def sensitivity(self):
            return (self.inp,)

    outcomes = {}
    for engine in ("dense", "event", "compiled"):
        sim = Simulator(engine=engine)
        ch = sim.add_channel("never", capacity=1)
        sim.add_component(Starved("s", ch))
        with pytest.raises(DeadlockError) as excinfo:
            sim.run(lambda: False, max_cycles=100_000)
        outcomes[engine] = (excinfo.value.cycle, str(excinfo.value),
                            excinfo.value.postmortem)
    assert outcomes["dense"] == outcomes["event"]
    # a custom component routes "compiled" through the dense fallback;
    # the error contract must survive that path too
    assert outcomes["dense"] == outcomes["compiled"]


def test_check_repro_under_event_engine(capsys):
    """The CLI reproducibility gate passes under the event engine."""
    from repro.cli import main

    assert main(["run", "fibonacci", "--check-repro",
                 "--engine", "event"]) == 0
    out = capsys.readouterr().out
    assert "reproducible" in out
