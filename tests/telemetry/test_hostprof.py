"""Host-time attribution: the compiled kernel that ran is the one timed,
cycles are bit-identical, the rows sum to the wall, and the reference
engines report wall time only."""

import pytest

from repro.accel import AcceleratorConfig, build_accelerator
from repro.errors import SimulationError
from repro.frontend import compile_source
from repro.sim.compile import clear_kernel_cache, generate_modules
from repro.telemetry.hostprof import PHASES

SOURCE = """
func work(a: i32*, n: i32) -> i32 {
  var total: i32 = 0;
  cilk_for (var i: i32 = 0; i < n; i = i + 1) {
    a[i] = a[i] + 1;
  }
  for (var j: i32 = 0; j < n; j = j + 1) {
    total = total + a[j];
  }
  return total;
}
"""


def _build(engine="compiled", observer=None, name="hostprof"):
    return build_accelerator(
        compile_source(SOURCE, name),
        AcceleratorConfig(default_ntiles=2, engine=engine),
        observer=observer)


def _run(accel, n=6):
    addr = accel.memory.alloc_array(
        accel.design.module.functions[0].arguments[0].type.pointee,
        [3] * n)
    return accel.run("work", [addr, n])


@pytest.mark.parametrize("engine", ["dense", "event", "compiled"])
def test_cycles_bit_identical_with_profiler(engine):
    """Host attribution is pure instrumentation: the simulated machine
    cannot tell whether it is being profiled."""
    plain = _run(_build(engine))
    accel = _build(engine)
    profiler = accel.sim.enable_host_profile()
    profiled = _run(accel)
    assert accel.sim.compiled_fallback is None
    plain.stats.pop("engine")
    profiled.stats.pop("engine")
    assert (plain.cycles, plain.retval, plain.stats) \
        == (profiled.cycles, profiled.retval, profiled.stats)
    assert profiler.wall_ns > 0


@pytest.mark.parametrize("engine", ["dense", "event", "compiled"])
def test_attribution_covers_the_run(engine):
    accel = _build(engine)
    profiler = accel.sim.enable_host_profile()
    _run(accel)
    payload = profiler.as_dict()
    assert payload["schema"] == 3
    assert payload["engine"] == engine
    assert payload["wall_seconds"] > 0
    assert set(profiler.phases()) == set(PHASES)
    # exhaustive: rows plus phases (engine.schedule the residual) are the
    # wall, on every engine
    named = sum(row["seconds"] for row in profiler.ranked_classes()) \
        + sum(profiler.phases().values())
    assert named == pytest.approx(profiler.wall_ns / 1e9, abs=1e-9)
    classes = [row["class"] for row in payload["classes"]]
    if engine != "compiled":  # the reference engines: wall time only
        assert classes == [] and profiler.measured_fraction() == 0.0
        return
    tasks = ["TXUTile[%s]" % unit.task.name for unit in accel.units]
    plumbing = {type(c).__name__ for c in accel.sim.components} - {"TaskUnit"}
    assert sorted(classes) == sorted(["TaskUnit", *tasks, *plumbing])
    assert 0.0 < profiler.measured_fraction() <= 1.0


def test_kernel_load_is_its_own_phase():
    """A cold run books generating and compiling its kernel to
    ``kernel.load``, not to the ``engine.schedule`` residual; a warm one
    finds the modules cached and books little there."""
    clear_kernel_cache()
    phases = []
    for _ in range(2):  # cold, then warm
        accel = _build(name="hostprof_load")
        profiler = accel.sim.enable_host_profile()
        _run(accel)
        phases.append(profiler.phases())
    cold, warm = phases
    assert cold["engine.schedule"] < cold["kernel.load"]
    assert 0 < warm["kernel.load"] < cold["kernel.load"] / 4


def test_profiled_shell_is_a_separate_text():
    """The profiler changes the shell's text only; the steppers, and the
    plain shell, are what an unprofiled design generates."""
    plain = generate_modules(_build().sim)
    accel = _build()
    accel.sim.enable_host_profile()
    profiled = generate_modules(accel.sim)
    assert profiled[1:] == plain[1:]
    assert "perf_counter_ns" in profiled[0]
    assert "perf_counter_ns" not in "".join(plain)


def test_uninstall_restores_the_plain_kernel():
    accel = _build(name="hostprof_un")
    plain = _build(name="hostprof_un")
    _run(plain)
    profiler = accel.sim.enable_host_profile()
    assert _run(accel).retval == 6 * 4
    assert accel.sim.compiled_digest != plain.sim.compiled_digest
    profiler.uninstall()
    assert accel.sim.host_profile is None
    wall = profiler.wall_ns
    # the next run is the plain kernel, and its time is not the profile's
    _run(accel)
    assert accel.sim.compiled_digest == plain.sim.compiled_digest
    assert profiler.wall_ns == wall


def test_double_install_refused():
    accel = _build(name="hostprof_dbl")
    profiler = accel.sim.enable_host_profile()
    with pytest.raises(SimulationError):
        profiler.install(accel.sim)


def test_observer_time_lands_in_observer_phase():
    """The kernel's hand-over to a change-driven observer is its own
    phase, and the observer sees every cycle."""
    from repro.obs import Observer

    observer = Observer()
    accel = _build(observer=observer, name="hostprof_obs")
    profiler = accel.sim.enable_host_profile()
    result = _run(accel)
    assert accel.sim.executed_engine == "compiled"
    assert 0 < profiler.phases()["observer"] * 1e9 <= profiler.wall_ns
    assert observer.cycles_observed == result.cycles


def test_third_party_observer_profile_is_wall_only():
    """An ``on_cycle``-only observer sends the run to the dense oracle,
    which reports wall time only, and the profile says why."""
    class Minimal:
        def __init__(self):
            self.cycles = 0

        def on_cycle(self, sim, cycle):
            self.cycles += 1

        def as_dict(self):
            return {"cycles_observed": self.cycles}

    observer = Minimal()
    accel = _build(observer=observer, name="hostprof_min")
    profiler = accel.sim.enable_host_profile()
    result = _run(accel)
    assert observer.cycles == result.cycles
    payload = profiler.as_dict()
    assert payload["engine"] == "dense"
    assert "Minimal" in payload["compiled_fallback"]
    assert payload["classes"] == [] and payload["measured_fraction"] == 0.0
