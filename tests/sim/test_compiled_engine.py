"""Compiled-engine specifics: codegen determinism, content-addressed
kernel caching, generated instrumentation and the fallback matrix.

Bit-identity of the compiled kernel against the dense oracle and the
event engine is covered by the three-engine matrix in
``tests/sim/test_engine_diff.py`` and the hypothesis parity properties
in ``tests/property/test_prop_engines.py``; this file owns everything
about *how* the kernel is produced, cached and bypassed.
"""

import contextlib
import os
import re
import subprocess
import sys

import pytest

import repro
from repro.accel import AcceleratorConfig, build_accelerator
from repro.frontend import compile_source
from repro.obs import Observer
from repro.reports import render_host_profile_report
from repro.sim import ENGINES, NULL_TRACE, Simulator, Trace
from repro.memory.arbiter import Demux
from repro.memory.cache import CacheParams
from repro.sim import compile as compile_mod
from repro.sim.compile import (
    clear_kernel_cache,
    generate_modules,
    generate_source,
    kernel_cache_info,
    kernel_digest,
    prepare_kernel,
)
from repro.task.task_unit import TaskUnit
from repro.task.txu import TXUTile
from repro.workloads import REGISTRY

FIB = """
func fib(n: i32) -> i32 {
  if (n < 2) {
    return n;
  }
  var x: i32 = spawn fib(n - 1);
  var y: i32 = spawn fib(n - 2);
  sync;
  return x + y;
}
"""


def _build(tiles=2, source=FIB, name="fib", engine="compiled", trace=None):
    module = compile_source(source, name)
    return build_accelerator(
        module, AcceleratorConfig(default_ntiles=tiles, engine=engine),
        trace=trace)


#: the sweep_cold grid of one program: tiles x cache capacity
GRID = [(tiles, cache) for tiles in (1, 4)
        for cache in (None, CacheParams(size_bytes=4096, mshr_count=2))]


def _grid_config(workload, tiles, cache):
    overrides = {} if cache is None else {"cache": cache}
    return workload.default_config(tiles, engine="compiled", **overrides)


class TestCodegenDeterminism:
    def test_same_design_yields_byte_identical_source(self):
        """Two independent elaborations of the same design must generate
        byte-identical kernel source — the precondition for
        content-addressed caching to ever hit."""
        first = generate_source(_build().sim)
        second = generate_source(_build().sim)
        assert first == second
        assert kernel_digest(first) == kernel_digest(second)

    def test_generation_is_repeatable_on_one_sim(self):
        sim = _build().sim
        assert generate_source(sim) == generate_source(sim)

    def test_different_designs_yield_different_source(self):
        assert (generate_source(_build(tiles=1).sim)
                != generate_source(_build(tiles=4).sim))

    @pytest.mark.parametrize("name", ["fibonacci", "dedup"])
    def test_steppers_are_generated_once_per_unit_not_per_tile(self, name):
        """A task unit is one TXU design instantiated Ntiles times: the
        stepper set lives in one factory per unit, and a tile costs one
        instantiation line plus its slice of the tick section."""
        workload = REGISTRY.get(name)

        def source(tiles):
            accel = workload.build(
                workload.default_config(tiles, engine="compiled"))
            return generate_source(accel.sim)

        one, four, eight = source(1), source(4), source(8)
        steppers = re.compile(r"def _s\d+\(inst, cycle\):")
        assert steppers.findall(one)
        assert steppers.findall(eight) == steppers.findall(one)
        assert len(eight) < 2 * len(one)
        assert one != four
        # one instantiation per tile, all of them of the unit's factory
        assert len(re.findall(r"= _mk\d+\(", eight)) == 8 * len(
            re.findall(r"def mk\(", eight))

    @pytest.mark.parametrize("workload", REGISTRY.all(),
                             ids=lambda workload: workload.name)
    def test_module_texts_follow_what_they_depend_on(self, workload):
        """A stepper module is a function of the task program alone, the
        shell of the netlist minus cache capacity: across tiles {1, 4} x
        {default cache, 4 KB / 2 MSHR} one stepper set serves all four
        points and the two cache configs of a tile count share a shell."""
        shells, steppers = {}, []
        for tiles, cache in GRID:
            sim = workload.build(_grid_config(workload, tiles, cache)).sim
            shell, *modules = generate_modules(sim)
            assert generate_source(sim) == shell + "".join(modules)
            shells.setdefault(tiles, []).append(shell)
            steppers.append(modules)
        assert len(steppers[0]) == sum(
            "make_steppers" in text for text in steppers[0]) > 0
        assert all(modules == steppers[0] for modules in steppers)
        assert shells[1][0] == shells[1][1]
        assert shells[4][0] == shells[4][1]
        assert shells[1][0] != shells[4][0]


def test_loop_temporaries_take_the_low_local_slots():
    """CPython reaches a frame's first 256 locals in one instruction and
    needs ``EXTENDED_ARG`` beyond; aliases alone pass that at eight tiles.
    Whatever the kernel's loop assigns that is not an alias (``c<K>i``,
    ``u<k>...``, ``x<k>...``) -- the per-cycle temporaries, hand-written and
    derived -- is therefore named ahead of them (``_TEMPORARIES``)."""
    workload = REGISTRY.get("dedup")
    sim = workload.build(workload.default_config(8, engine="compiled")).sim
    kernel, reason = prepare_kernel(sim)
    assert reason is None
    shell = generate_modules(sim)[0]
    loop = shell[shell.index("while True:"):shell.index("finally:")]
    assigned = {name for targets in re.findall(
        r"^ *(?:for )?((?:\w+, )*\w+) (?:[-+|]?=|in) ", loop, re.M)
        for name in targets.split(", ") if not re.match(r"[cux]\d", name)}
    slots = {name: slot for slot, name
             in enumerate(kernel.__code__.co_varnames)}
    assert len(slots) > 256 and {"ix_", "k", "tw", "z0_msg"} <= assigned
    assert {name: slots[name] for name in assigned
            if slots[name] >= 256} == {}


class TestKernelCache:
    def test_compiled_run_does_not_import_the_sweep_stack(self):
        """A kernel's digest is the sha256 of its text: running a
        compiled design never imports ``repro.exp``."""
        src = os.path.dirname(os.path.dirname(repro.__file__))
        script = ("import sys\nfrom repro.workloads import REGISTRY\n"
                  "r = REGISTRY.get('fibonacci').run()\n"
                  "assert r.correct, r\n"
                  "assert r.stats['engine']['compiled_fallback'] is None\n"
                  "print([m for m in sys.modules"
                  " if m.startswith('repro.exp')])\n")
        done = subprocess.run([sys.executable, "-c", script],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[]\n"

    def test_digest_folds_source(self):
        assert (kernel_digest("cycle = 0\n")
                != kernel_digest("cycle = 1\n"))

    def test_broken_generated_source_fails_closed(self, monkeypatch):
        """A kernel that does not compile is a codegen bug: it surfaces
        as a SimulationError naming the digest and the module's
        ``<shell DIGEST12>`` file name, and the run does not quietly fall
        back to the dense engine."""
        from repro.errors import SimulationError

        accel = _build()
        real = compile_mod._generate

        def broken(sim):
            shell, steppers, ctx = real(sim)
            return shell + "def make_kernel(:\n", steppers, ctx

        monkeypatch.setattr(compile_mod, "_generate", broken)
        digest = kernel_digest(broken(accel.sim)[0])
        with pytest.raises(SimulationError) as excinfo:
            accel.run("fib", [5])
        message = str(excinfo.value)
        assert "shell " + digest in message
        assert f"(<shell {digest[:12]}>)" in message
        assert "SyntaxError" in message
        assert accel.sim.compiled_fallback is None
        assert digest not in compile_mod._MODULES

    def test_module_cache_reuses_compiled_module(self):
        clear_kernel_cache()
        before = kernel_cache_info()

        def delta():
            return {key: value - before[key]
                    for key, value in kernel_cache_info().items()
                    if key != "compile_seconds"}

        sim = _build().sim
        prepare_kernel(sim)
        assert len(compile_mod._MODULES) == 2  # the shell and fib's TXU
        # the design's digest is that of its texts laid end to end
        assert sim.compiled_digest == kernel_digest(generate_source(sim))
        prepare_kernel(_build().sim)  # same design: no recompilation
        assert len(compile_mod._MODULES) == 2
        prepare_kernel(_build(tiles=4).sim)  # new netlist, same task
        assert len(compile_mod._MODULES) == 3
        assert delta() == {"shells_compiled": 2, "shells_reused": 1,
                           "steppers_compiled": 1, "steppers_reused": 2}
        assert kernel_cache_info()["compile_seconds"] \
            > before["compile_seconds"]

    def test_kernel_traceback_prints_the_kernel_line(self):
        """A module is compiled as ``<shell DIGEST12>`` or ``<stepper
        DIGEST12>`` with its lines in ``linecache``, so a traceback through
        a kernel prints the generated line; ``clear_kernel_cache`` drops
        those lines with the modules."""
        import linecache
        import traceback

        from repro.errors import SimulationError

        with pytest.raises(SimulationError) as excinfo:
            REGISTRY.get("fibonacci").run(max_cycles=10)
        error = excinfo.value
        text = "".join(traceback.format_exception(
            type(error), error, error.__traceback__))
        assert re.search(r'File "<shell [0-9a-f]{12}>", line \d+, in kernel'
                         r"\n +raise SimulationError\(\n", text), text

        def kernel_lines():
            return [name for name in linecache.cache
                    if name.startswith(("<shell ", "<stepper "))]

        assert kernel_lines()
        clear_kernel_cache()
        assert kernel_lines() == []

    def test_design_points_of_a_program_share_its_steppers(self):
        """The TXU is compiled once per task, not once per design point:
        a program's four grid points leave one stepper module per task
        unit and one shell per tile count."""
        workload = REGISTRY.get("dedup")
        clear_kernel_cache()
        cycles = set()
        for tiles, cache in GRID:
            result = workload.run(_grid_config(workload, tiles, cache))
            assert result.correct
            cycles.add(result.cycles)
        assert len(cycles) > 1  # distinct designs, not one point replayed
        kinds = sorted("stepper" if "make_steppers" in module else "shell"
                       for module in compile_mod._MODULES.values())
        assert kinds == ["shell"] * 2 + ["stepper"] * 3


class OnCycleOnly:
    """A third-party observer: the per-cycle hook and nothing else."""

    def __init__(self):
        self.cycles = 0

    def on_cycle(self, sim, cycle):
        self.cycles += 1


class Counting(Demux):
    """Bumps a counter on every tick: the no-op guard cannot hold."""

    ticks = 0

    def tick(self, cycle):
        self.ticks += 1
        super().tick(cycle)


class Guarded(Demux):
    def tick(self, cycle):
        with contextlib.nullcontext():
            Demux.tick(self, cycle)


class Retrying(Demux):
    def tick(self, cycle):
        try:
            Demux.tick(self, cycle)
        finally:
            pass


class ReturningEarly(Demux):
    def tick(self, cycle):
        if not self._pipe and not self.input.can_pop():
            return 0
        Demux.tick(self, cycle)


class ReturningFromALoop(Demux):
    def tick(self, cycle):
        for _ in range(1):
            if cycle < 0:
                return
        Demux.tick(self, cycle)


class ChannelAsValue(Demux):
    def tick(self, cycle):
        source = self.input
        if source.can_pop() or self._pipe:
            Demux.tick(self, cycle)


class PushInExpression(Demux):
    def tick(self, cycle):
        if self._pipe and self._pipe[0][0] <= cycle:
            out = self.outputs[self.port_of(self._pipe[0][1])]
            if out.can_push() and out.push(self._pipe.popleft()[1]) is None:
                pass
        if self.input.can_pop() and len(self._pipe) <= self.levels:
            msg = self.input.pop()
            self._pipe.append((cycle + self.levels, msg))


#: what the derivation must decline: class -> the construct its reason names
_UNDERIVABLE = {cls.__name__: (cls, construct) for cls, construct in (
    (Counting, "'super'"), (Guarded, "`with` statement"),
    (Retrying, "`try` statement"), (ReturningEarly, "`return` statement"),
    (ReturningFromALoop, "`return` statement"),
    (ChannelAsValue, "channel self.input used as a value"),
    (PushInExpression, "push() inside an expression"))}


def _assert_ran_dense(accel, oracle, reason):
    """A declined compiled run is a dense run: same cycles, result and
    stats as ``oracle`` (the same design and instrumentation built with
    ``engine="dense"``), the reason recorded. Returns the cycle count."""
    result = accel.run("fib", [10])
    expected = oracle.run("fib", [10])
    assert reason in accel.sim.compiled_fallback
    assert accel.sim.executed_engine == "dense"
    engine = result.stats.pop("engine")
    assert engine["name"] == "compiled"
    assert reason in engine["compiled_fallback"]
    expected.stats.pop("engine")
    assert ((result.cycles, result.retval, result.stats)
            == (expected.cycles, expected.retval, expected.stats))
    return result.cycles


class TestFallbackMatrix:
    """What the generator folds into the kernel (a change-driven observer,
    traced task units) and what still routes the run through the dense
    oracle, with the reason recorded on ``Simulator.compiled_fallback``.
    docs/observability.md documents this matrix."""

    @pytest.fixture(autouse=True)
    def no_event_engine(self, monkeypatch):
        """Nothing the compiled engine declines may reach the event
        engine: entering it fails the test."""
        def entered(*args):
            raise AssertionError("a compiled run entered the event engine")

        monkeypatch.setattr(Simulator, "_run_event", entered)

    def test_plain_run_does_not_fall_back(self):
        workload = REGISTRY.get("fibonacci")
        config = workload.default_config(2, engine="compiled")
        result = workload.run(config)
        assert result.correct
        assert result.stats["engine"]["name"] == "compiled"
        assert result.stats["engine"]["compiled_fallback"] is None

    def test_uninstrumented_source_has_no_hook_lines(self):
        """Zero cost when off: no name the observer hand-over defines or
        calls, and no ``analysis_event`` call, appears in a plain design's
        kernel, on any registry workload."""
        for workload in REGISTRY.names():
            w = REGISTRY.get(workload)
            for tiles in (1, 4):
                source = generate_source(w.build(w.default_config(tiles)).sim)
                for name in ("tk", "SUB", "_oc", "_obs", "_on_change", "analysis_event"):
                    assert not re.search(r"\b%s\b" % name, source), (workload, tiles, name)

    def test_observer_is_generated_into_the_kernel(self):
        accel = _build()
        plain = generate_source(accel.sim)
        prepare_kernel(accel.sim)
        plain_digest = accel.sim.compiled_digest
        accel.sim.attach_observer(Observer())
        kernel, reason = prepare_kernel(accel.sim)
        assert kernel is not None and reason is None
        assert accel.sim.compiled_digest != plain_digest
        observed = generate_source(accel.sim)
        assert len(re.findall(r"^ +tk \|= \d+$", observed, re.M)) == len(accel.sim.components)
        assert observed.count("_oc(sim, cycle, tk, ") == 2  # after a commit, and not
        assert "analysis_event" not in observed
        accel.sim.observer = None  # detached: the plain kernel again
        assert generate_source(accel.sim) == plain
        prepare_kernel(accel.sim)
        assert accel.sim.compiled_digest == plain_digest

    def test_instrumentation_rolls_the_module_it_is_generated_into(self):
        """A traced unit gets its own stepper module (the event sites are
        in it), an observer its own shell (the hand-over is); the other
        module is shared with the plain design, and a detached sim is
        back on both plain ones."""
        def digests(sim):
            shell, *steppers = map(kernel_digest, generate_modules(sim))
            return shell, steppers

        accel = _build()
        plain_shell, plain_steppers = digests(accel.sim)
        traced_shell, traced_steppers = digests(
            _build(trace=Trace(enabled=True)).sim)
        assert traced_steppers != plain_steppers
        assert traced_shell != plain_shell  # it hands analysis_event over
        accel.sim.attach_observer(Observer())
        observed_shell, observed_steppers = digests(accel.sim)
        assert observed_shell != plain_shell
        assert observed_steppers == plain_steppers
        accel.sim.observer = None
        assert digests(accel.sim) == (plain_shell, plain_steppers)

    def test_traced_units_emit_their_events_inline(self):
        plain = _build()
        trace = Trace(enabled=True)
        traced = _build(trace=trace)
        source = generate_source(traced.sim)
        assert source != generate_source(plain.sim)
        for kind in ('"mem"', '"sync-pass"'):
            assert kind in source, kind
        assert "tk.append(" not in source  # no observer: no hand-over
        kernel, reason = prepare_kernel(traced.sim)
        assert kernel is not None and reason is None
        # TaskUnit.issue_spawn issues a spawn under every engine: the same
        # spawn-issue events, and each child's task-start carries its seq
        oracle_trace = Trace(enabled=True)
        oracle = _build(engine="dense", trace=oracle_trace)

        def spawns(accel, events):
            assert accel.run("fib", [10]).retval == 55
            return ([(e.cycle, e.source, e.detail, e.payload, e.seq)
                     for e in events if e.kind == "spawn-issue"],
                    [e.payload["origin_seq"]
                     for e in events if e.kind == "task-start"])

        issued, origins = spawns(traced, trace.events)
        assert traced.sim.executed_engine == "compiled"
        assert (issued, origins) == spawns(oracle, oracle_trace.events)
        assert issued and {e[-1] for e in issued} <= set(origins)

    @pytest.mark.parametrize("trace", [Trace(enabled=False), NULL_TRACE],
                             ids=["disabled", "null"])
    def test_disabled_trace_runs_the_plain_kernel(self, trace):
        """A unit holding a switched-off trace is not instrumented: same
        source as an untraced build, no fallback, nothing emitted."""
        accel = _build(trace=trace)
        assert generate_source(accel.sim) == generate_source(_build().sim)
        result = accel.run("fib", [10])
        assert result.retval == 55
        assert accel.sim.compiled_fallback is None
        assert trace.events == []

    def test_observer_without_on_change_falls_back(self):
        accel = _build()
        watcher = accel.sim.attach_observer(OnCycleOnly())
        kernel, reason = prepare_kernel(accel.sim)
        assert kernel is None and "OnCycleOnly" in reason
        oracle = _build(engine="dense")
        oracle_watcher = oracle.sim.attach_observer(OnCycleOnly())
        cycles = _assert_ran_dense(accel, oracle, "OnCycleOnly")
        # the exact per-cycle view, as the sample-everything oracle gives it
        assert watcher.cycles == oracle_watcher.cycles == cycles

    def test_host_profile_runs_compiled(self):
        """A host profiler is generated into the shell: the profiled run is
        a compiled run, equal to the dense oracle's, and the profile says
        so."""
        accel = _build()
        profiler = accel.sim.enable_host_profile()
        kernel, reason = prepare_kernel(accel.sim)
        assert kernel is not None and reason is None
        result = accel.run("fib", [10])
        expected = _build(engine="dense").run("fib", [10])
        assert accel.sim.executed_engine == "compiled"
        assert result.stats.pop("engine")["compiled_fallback"] is None
        expected.stats.pop("engine")
        assert ((result.cycles, result.retval, result.stats)
                == (expected.cycles, expected.retval, expected.stats))
        payload = profiler.as_dict()
        assert payload["engine"] == "compiled"
        assert payload["compiled_fallback"] is None
        report = render_host_profile_report("fib", profiler)
        assert "engine=compiled\n" in report and "declined" not in report

    def test_unknown_component_falls_back(self):
        from repro.sim import Component

        class Exotic(Component):
            ticks = 0

            def tick(self, cycle):
                self.ticks += 1

        def run(engine):
            sim = Simulator(engine=engine)
            weird = sim.add_component(Exotic("weird"))
            cycles = sim.run(lambda: weird.ticks == 7)
            stats = sim.stats()
            stats.pop("engine")
            return sim, (cycles, weird.ticks, stats)

        sim, outcome = run("compiled")
        assert "Exotic" in sim.compiled_fallback
        assert prepare_kernel(sim) == (None, sim.compiled_fallback)
        assert outcome == run("dense")[1]

    @pytest.mark.parametrize("name", sorted(_UNDERIVABLE))
    def test_component_outside_the_subset_falls_back(self, name):
        """A plumbing class is compiled from its own ``tick`` text or not
        at all: an override the derivation cannot read runs on the dense
        oracle -- same cycles, stats and per-instance counter -- with the
        class, method, construct and source line in the reason. (At PR 21
        an overriding subclass was compiled with its base's emitter: the
        ``Counting`` counter read 0 and no reason was recorded.)"""
        cls, construct = _UNDERIVABLE[name]
        outcomes = {}
        for engine in ("dense", "compiled"):
            workload = REGISTRY.get("saxpy")
            accel = workload.build(workload.default_config(2, engine=engine))
            swapped = [comp for comp in accel.sim.components
                       if type(comp) is Demux]
            for comp in swapped:
                comp.__class__ = cls
            prepared = workload.prepare(accel.memory, 1)
            result = accel.run(prepared.function, prepared.args)
            assert prepared.check(accel.memory, result.retval)
            stats = dict(result.stats)
            stats.pop("engine")
            reason = accel.sim.compiled_fallback
            outcomes[engine] = (result.cycles, stats,
                                [getattr(comp, "ticks", None)
                                 for comp in swapped])
        assert outcomes["dense"] == outcomes["compiled"]
        line = cls.tick.__code__.co_firstlineno
        assert f"{cls.__qualname__}.tick" in reason
        assert construct in reason and "derivable subset" in reason
        assert any(f"(line {line + offset})" in reason for offset in range(8))
        assert prepare_kernel(accel.sim) == (None, reason)

    def test_tile_scheduler_outside_the_subset_falls_back(self):
        """The kernel's tile tick is derived from the tile class's own
        ``tick``: a scheduler the derivation cannot read runs the design
        on the dense oracle, with the reason naming it."""
        class EarlyOut(TXUTile):
            def tick(self, cycle):
                if not self.instances:
                    return
                TXUTile.tick(self, cycle)

        outcomes = {}
        for engine in ("dense", "compiled"):
            workload = REGISTRY.get("fibonacci")
            accel = workload.build(workload.default_config(2, engine=engine))
            for unit in accel.units:
                for tile in unit.tiles:
                    tile.__class__ = EarlyOut
            prepared = workload.prepare(accel.memory, 1)
            result = accel.run(prepared.function, prepared.args)
            assert prepared.check(accel.memory, result.retval)
            stats = dict(result.stats)
            stats.pop("engine")
            outcomes[engine] = (result.cycles, stats)
        assert outcomes["dense"] == outcomes["compiled"]
        reason = accel.sim.compiled_fallback
        assert "EarlyOut.tick: `return` statement" in reason
        assert "derivable subset" in reason

    def test_class_without_source_falls_back(self):
        namespace = {"Demux": Demux}
        exec("class Sourceless(Demux):\n"
             "    def tick(self, cycle):\n"
             "        Demux.tick(self, cycle)\n", namespace)
        sim = Simulator(engine="compiled")
        channels = [sim.add_channel(f"c{i}") for i in range(3)]
        sim.add_component(namespace["Sourceless"](
            "d", channels[0], channels[1:]))
        kernel, reason = prepare_kernel(sim)
        assert kernel is None
        assert "Sourceless.tick" in reason and "unavailable source" in reason

    def test_derived_sections_name_their_one_definition(self):
        """Each plumbing section of the shell opens with a comment naming
        ``<module>.<Class>.tick`` (by name, with no source line), the guard
        follows it, and an attached observer's ``tk |= <component's bit>``
        the guard; each tile's section names ``TXUTile.tick``."""
        accel = _build()
        accel.sim.attach_observer(Observer())
        lines = [line.strip() for line
                 in generate_modules(accel.sim)[0].splitlines()]
        plumbing = [comp for comp in accel.sim.components
                    if not isinstance(comp, TaskUnit)]
        tiles = [tile for unit in accel.units for tile in unit.tiles]
        tile_origin = "# %s.%s" % (TXUTile.tick.__module__,
                                   TXUTile.tick.__qualname__)
        assert lines.count(tile_origin) == len(tiles) > 0
        named = [at for at, line in enumerate(lines)
                 if line.startswith("# repro.") and line != tile_origin]
        assert len(named) == len(plumbing) > 0
        for at, comp in zip(named, plumbing):
            tick = type(comp).tick
            assert lines[at] == "# %s.%s" % (tick.__module__,
                                             tick.__qualname__)
            assert lines[at + 1].startswith("if ")
            assert lines[at + 2] == "tk |= %d" % (
                1 << accel.sim.components.index(comp))

    @pytest.mark.parametrize("form", ["plain", "observed", "traced",
                                      "profiled"])
    def test_kernel_text_cites_no_source_line(self, form):
        """Provenance comments name methods only: a line number would
        change every kernel's text (and digest) whenever any line above a
        derived method moved."""
        from repro.telemetry.hostprof import HostProfiler

        for workload in REGISTRY.all():
            accel = workload.build(
                workload.default_config(2, engine="compiled"),
                trace=Trace(enabled=True) if form == "traced" else None,
                observer=Observer() if form == "observed" else None)
            if form == "profiled":
                HostProfiler().install(accel.sim)
            modules = generate_modules(accel.sim)
            assert any("# repro." in text for text in modules)
            assert not any("(line " in text for text in modules), \
                workload.name

    def test_fallback_reason_recorded_on_run(self):
        accel = _build()
        accel.sim.attach_observer(OnCycleOnly())
        accel.run("fib", [10])
        assert "OnCycleOnly" in accel.sim.compiled_fallback
        assert accel.sim.stats()["engine"]["compiled_fallback"] \
            == accel.sim.compiled_fallback

    def test_clean_run_records_no_fallback(self):
        accel = _build()
        module = compile_source(FIB, "fib")
        accel.run(module.functions[0].name, [10])
        assert accel.sim.compiled_fallback is None
        assert accel.sim.compiled_digest


def _deadlock_ring_outcomes(engines):
    """Run the deadlock fixture under each engine; returns
    ``{engine: (cycle, message, postmortem)}``."""
    import os

    from repro.cli import _default_profile_args
    from repro.errors import DeadlockError

    path = os.path.join(os.path.dirname(__file__), "..", "..", "examples",
                        "programs", "deadlock_ring.cilk")
    with open(path) as handle:
        source = handle.read()
    outcomes = {}
    for engine in engines:
        module = compile_source(source, "deadlock_ring")
        accel = build_accelerator(
            module, AcceleratorConfig(default_ntiles=2, engine=engine))
        function = module.functions[0]
        args = _default_profile_args(function, accel.memory, 8)
        with pytest.raises(DeadlockError) as excinfo:
            accel.run(function.name, args)
        outcomes[engine] = (excinfo.value.cycle, str(excinfo.value),
                            excinfo.value.postmortem)
        if engine == "compiled":
            assert accel.sim.compiled_fallback is None
    return outcomes


def test_deadlock_postmortem_parity_on_generated_kernel():
    """The generated kernel embeds its own idle-window deadlock
    detector; on a design the codegen fully supports it must fail at
    the same cycle with the same message and postmortem as the dense
    oracle (the fallback path is covered in test_engine_diff.py)."""
    outcomes = _deadlock_ring_outcomes(("dense", "compiled"))
    assert outcomes["dense"] == outcomes["compiled"]


def test_stall_windows_have_one_definition(monkeypatch):
    """The kernel's stall-window literals are formatted from the engine
    constants at generation time: shrinking a window moves the failure
    cycle of all three engines together."""
    import repro.sim.engine as engine_module
    from repro.errors import DeadlockError

    # idle window: an accelerator nobody spawned into, never done
    monkeypatch.setattr(engine_module, "DEADLOCK_WINDOW", 300)
    cycles = {}
    for engine in ENGINES:
        accel = _build(engine=engine)
        with pytest.raises(DeadlockError) as excinfo:
            accel.sim.run(lambda: False, max_cycles=10_000)
        cycles[engine] = excinfo.value.cycle
        if engine == "compiled":
            assert accel.sim.compiled_fallback is None
    assert cycles == dict.fromkeys(ENGINES, 301)

    # livelock window: the ring stays busy, so only STALL_WINDOW trips
    default_stall_window = engine_module.STALL_WINDOW
    monkeypatch.setattr(engine_module, "STALL_WINDOW", 4096)
    outcomes = _deadlock_ring_outcomes(ENGINES)
    assert outcomes["dense"] == outcomes["event"] == outcomes["compiled"]
    assert "livelock" in outcomes["dense"][1]
    assert outcomes["dense"][0] < default_stall_window


FANOUT = """
func tree(n: i32) -> i32 {
  if (n < 1) {
    return 1;
  }
  var a: i32 = spawn tree(n - 1);
  var b: i32 = spawn tree(n - 1);
  var c: i32 = spawn tree(n - 1);
  var d: i32 = spawn tree(n - 1);
  var e: i32 = spawn tree(n - 1);
  var f: i32 = spawn tree(n - 1);
  sync;
  return a + b + c + d + e + f;
}
"""


@pytest.mark.parametrize("source, entry, arg, cycle, parked", [
    (REGISTRY.get("fibonacci").source, "fib",
     REGISTRY.get("fibonacci").default_n(3), 4121, False),
    (FANOUT, "tree", 3, 4125, True),
], ids=["fib", "fanout"])
def test_queue_full_livelock_parity(monkeypatch, source, entry, arg, cycle,
                                    parked):
    """A three-entry task queue is a circular wait. ``fib`` suspends
    every instance at its sync; the six-way fan-out leaves both tiles'
    instances blocked on the spawn out-buffer, which the kernel parks
    instead of polling: the stall window must still see them."""
    import repro.sim.engine as engine_module
    from repro.accel import TaskUnitParams
    from repro.errors import DeadlockError

    monkeypatch.setattr(engine_module, "STALL_WINDOW", 4096)
    outcomes = {}
    for engine in ("dense", "compiled"):
        accel = build_accelerator(
            compile_source(source, entry),
            AcceleratorConfig(engine=engine, unit_params={
                entry: TaskUnitParams(ntiles=2, queue_depth=3)}))
        with pytest.raises(DeadlockError, match="livelock") as excinfo:
            accel.run(entry, [arg])
        outcomes[engine] = (excinfo.value.cycle, str(excinfo.value),
                            excinfo.value.postmortem)
    assert accel.sim.compiled_fallback is None
    assert [inst.park for unit in accel.units for tile in unit.tiles
            for inst in tile.instances] == ([2, 2] if parked else [])
    assert outcomes["dense"] == outcomes["compiled"]
    assert outcomes["dense"][0] == cycle


@pytest.mark.parametrize("engine", ["dense", "event"])
def test_membound_parity(engine):
    """The memory-bound regime (tiny cache, one MSHR, long DRAM
    latency) under the compiled kernel, against both other engines."""
    from repro.accel import ARRIA_10
    from repro.memory.cache import CacheParams

    workload = REGISTRY.get("saxpy")
    outcomes = {}
    for eng in (engine, "compiled"):
        config = workload.default_config(
            2, engine=eng, board=ARRIA_10,
            cache=CacheParams(size_bytes=1024, mshr_count=1),
            dram_latency_cycles=200)
        result = workload.run(config, scale=4)
        assert result.correct
        stats = dict(result.stats)
        stats.pop("engine")
        outcomes[eng] = (result.cycles, result.retval, stats)
    assert outcomes[engine] == outcomes["compiled"]
