"""Host-time attribution: bit-identical cycles, coverage, uninstall."""

import pytest

from repro.accel import AcceleratorConfig, build_accelerator
from repro.errors import SimulationError
from repro.frontend import compile_source
from repro.telemetry.hostprof import HostProfiler

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


def _run(engine, profiled):
    accel = build_accelerator(
        compile_source(SOURCE, "hostprof"),
        AcceleratorConfig(default_ntiles=2, engine=engine))
    profiler = accel.sim.enable_host_profile() if profiled else None
    n = 6
    addr = accel.memory.alloc_array(
        accel.design.module.functions[0].arguments[0].type.pointee,
        [3] * n)
    result = accel.run("work", [addr, n])
    return result, profiler


@pytest.mark.parametrize("engine", ["dense", "event"])
def test_cycles_bit_identical_with_profiler(engine):
    """The tentpole invariant: host attribution is pure instrumentation
    — the simulated machine cannot tell whether it is being profiled."""
    plain, _ = _run(engine, profiled=False)
    profiled, profiler = _run(engine, profiled=True)
    assert plain.cycles == profiled.cycles
    assert plain.retval == profiled.retval
    assert profiler.wall_ns > 0


@pytest.mark.parametrize("engine", ["dense", "event"])
def test_attribution_covers_the_run(engine):
    _, profiler = _run(engine, profiled=True)
    # every wrapped class shows up with real tick counts
    classes = {row["class"]: row for row in profiler.ranked_classes()}
    assert "TaskUnit" in classes
    assert classes["TaskUnit"]["ticks"] > 0
    assert len(classes) >= 3
    # attribution is exhaustive: named classes + phases cover the wall
    assert profiler.coverage() >= 0.9
    assert 0.0 < profiler.measured_fraction() <= 1.0
    phases = profiler.phases()
    assert set(phases) == {"channels.commit", "observer", "engine.schedule"}
    payload = profiler.as_dict()
    assert payload["schema"] == 1
    assert payload["engine"] == engine
    assert payload["wall_seconds"] > 0


def test_uninstall_restores_methods():
    accel = build_accelerator(
        compile_source(SOURCE, "hostprof_un"),
        AcceleratorConfig(default_ntiles=1))
    profiler = accel.sim.enable_host_profile()
    component = accel.sim.components[0]
    assert "tick" in component.__dict__  # instance shadow installed
    profiler.uninstall()
    assert "tick" not in component.__dict__
    assert accel.sim.host_profile is None
    # the design still runs after uninstall
    n = 4
    addr = accel.memory.alloc_array(
        accel.design.module.functions[0].arguments[0].type.pointee, [1] * n)
    result = accel.run("work", [addr, n])
    assert result.retval == n * 2


def test_double_install_refused():
    accel = build_accelerator(
        compile_source(SOURCE, "hostprof_dbl"),
        AcceleratorConfig(default_ntiles=1))
    profiler = HostProfiler()
    accel.sim.enable_host_profile(profiler)
    with pytest.raises(SimulationError):
        profiler.install(accel.sim)


def test_observer_time_lands_in_observer_phase():
    for engine in ("dense", "event"):
        _check_observer_is_timed(engine)


def _check_observer_is_timed(engine):
    """Whatever hook the engine calls — ``on_cycle`` from the dense
    loop, ``on_change`` and ``flush`` from the event engine — is timed
    into ``observer_ns`` once, and ``uninstall`` puts the methods back."""
    from repro.obs import Observer

    observer = Observer()
    accel = build_accelerator(
        compile_source(SOURCE, "hostprof_obs"),
        AcceleratorConfig(default_ntiles=1, engine=engine),
        observer=observer)
    profiler = accel.sim.enable_host_profile()
    n = 4
    addr = accel.memory.alloc_array(
        accel.design.module.functions[0].arguments[0].type.pointee, [1] * n)
    result = accel.run("work", [addr, n])
    assert 0 < profiler.observer_ns <= profiler.wall_ns
    assert observer.cycles_observed == result.cycles
    profiler.uninstall()
    assert not {"on_cycle", "on_change", "flush"} & set(vars(observer))
    # the observer keeps working, untimed, on the next run
    timed = profiler.observer_ns
    accel.run("work", [addr, n])
    assert observer.cycles_observed == accel.sim.cycle
    assert profiler.observer_ns == timed


def test_third_party_observer_is_timed_through_on_cycle():
    class Minimal:
        def __init__(self):
            self.cycles = 0

        def on_cycle(self, sim, cycle):
            self.cycles += 1

        def as_dict(self):
            return {"cycles_observed": self.cycles}

    observer = Minimal()
    accel = build_accelerator(
        compile_source(SOURCE, "hostprof_min"),
        AcceleratorConfig(default_ntiles=1), observer=observer)
    profiler = accel.sim.enable_host_profile()
    n = 4
    addr = accel.memory.alloc_array(
        accel.design.module.functions[0].arguments[0].type.pointee, [1] * n)
    result = accel.run("work", [addr, n])
    assert observer.cycles == result.cycles
    assert profiler.observer_ns > 0
    profiler.uninstall()
    assert "on_cycle" not in vars(observer)
