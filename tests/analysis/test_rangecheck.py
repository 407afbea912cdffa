"""Cross-validation of the static analyses against real executions.

Two soundness obligations, checked over the example-program matrix:

* every integer a task unit produces lies inside its statically inferred
  interval (``RangeChecker`` attached to every TXU tile), and
* the static "certain deadlock" verdict (TAP-NET-004 at error severity
  on the entry) agrees with the runtime deadlock detector — designs that
  simulate to completion are never statically condemned, and the one
  fixture that is condemned really does deadlock.
"""

import os

import pytest

from repro.accel import AcceleratorConfig, build_accelerator
from repro.analysis import lint_design
from repro.analysis.rangecheck import RangeChecker
from repro.cli import _default_profile_args
from repro.errors import DeadlockError
from repro.frontend import compile_source
from repro.workloads import REGISTRY

EXAMPLES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "..", "..", "examples", "programs")

#: every example that terminates (deadlock_ring, by design, does not)
RUNNABLE = ["dead_task", "double_all", "fib", "narrow_sum", "racy_sum",
            "saxpy"]


def _load(fixture):
    with open(os.path.join(EXAMPLES, fixture + ".cilk")) as handle:
        return compile_source(handle.read(), fixture)


def _run_checked(fixture, size, tiles=1):
    module = _load(fixture)
    entry = module.functions[0].name
    config = AcceleratorConfig(default_ntiles=tiles, analysis_level="none")
    accel = build_accelerator(module, config)
    checker = RangeChecker.for_accelerator(accel, entry=entry)
    fn = next(f for f in module.functions if f.name == entry)
    args = _default_profile_args(fn, accel.memory, size)
    result = accel.run(entry, args)
    return result, checker


@pytest.mark.parametrize("fixture", RUNNABLE)
@pytest.mark.parametrize("size", [4, 8])
def test_dynamic_values_stay_in_static_ranges(fixture, size):
    if fixture == "fib" and size > 4:
        size = 6  # keep the exponential fixture cheap
    result, checker = _run_checked(fixture, size)
    checker.assert_clean()
    assert checker.checked > 0


def test_escaped_value_is_reported_with_its_interval():
    _, checker = _run_checked("narrow_sum", 4)
    cell, interval = next(iter(checker.ranges.cell_ranges.items()))
    checker.probe(cell, interval.hi + 1)
    with pytest.raises(AssertionError, match=(
            rf"1 dynamic value.*\n  cell {cell.name}: observed "
            rf"{interval.hi + 1} outside \[{interval.lo}, {interval.hi}\]")):
        checker.assert_clean()


def test_checker_survives_multi_tile_runs():
    result, checker = _run_checked("saxpy", 8, tiles=4)
    checker.assert_clean()


@pytest.mark.parametrize("name", ["saxpy", "matrix_add"])
def test_workloads_stay_in_static_ranges(name):
    """The paper workloads run through the same probe: build, attach,
    offload at a small scale, assert the oracle result AND the ranges.
    The default engine sees every value the dense oracle does."""
    workload = REGISTRY.get(name)
    checked = {}
    for engine in (None, "dense"):
        overrides = {} if engine is None else {"engine": engine}
        accel = workload.build(workload.default_config(
            ntiles=1, analysis_level="none", **overrides))
        checker = RangeChecker.for_accelerator(accel, entry=workload.entry)
        prepared = workload.prepare(accel.memory, scale=1)
        result = accel.run(prepared.function, prepared.args)
        assert prepared.check(accel.memory, result.retval)
        checker.assert_clean()
        checked[engine] = checker.checked
    assert checked[None] == checked["dense"]


# -- deadlock verdict cross-validation ---------------------------------------

def test_completing_designs_are_never_condemned():
    """Zero false positives: a design that simulates to completion must
    not carry a TAP-NET-004 error on its entry."""
    for fixture in RUNNABLE:
        module = _load(fixture)
        from repro.accel.generator import generate

        design = generate(module)
        report = lint_design(design, entry=module.functions[0].name)
        condemned = [d for d in report.diagnostics
                     if d.code == "TAP-NET-004" and d.severity == "error"]
        assert condemned == [], (fixture, [d.message for d in condemned])


def test_condemned_design_really_deadlocks():
    """The static error verdict is confirmed by the runtime detector:
    deadlock_ring stalls with a postmortem naming the ring."""
    module = _load("deadlock_ring")
    from repro.accel.generator import generate

    design = generate(module)
    report = lint_design(design, entry="pong")
    assert any(d.code == "TAP-NET-004" and d.severity == "error"
               for d in report.diagnostics)

    accel = build_accelerator(module,
                              AcceleratorConfig(analysis_level="none"))
    with pytest.raises(DeadlockError) as excinfo:
        accel.run("pong", [0], max_cycles=500_000)
    postmortem = excinfo.value.postmortem
    assert postmortem["stalled"]
    assert postmortem["cycle"] > 0
