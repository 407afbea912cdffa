"""Dynamic race checking over traced simulations, and cross-validation of
the static verdicts against what actually happened on the accelerator."""

import os

import pytest

from repro.accel import AcceleratorConfig, build_accelerator
from repro.analysis import analyze_design
from repro.analysis.races import find_races
from repro.errors import AnalysisError
from repro.frontend import compile_source
from repro.ir.types import I32
from repro.sim.trace import Trace
from tests.oracles.races import DynamicRaceChecker, cross_validate, race_check

EXAMPLES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "..", "..", "examples", "programs")


def traced_run(fixture, setup):
    """Build an example program with tracing, run, return (accelerator,
    trace, retval)."""
    with open(os.path.join(EXAMPLES, fixture + ".cilk")) as handle:
        module = compile_source(handle.read(), fixture)
    trace = Trace(enabled=True)
    acc = build_accelerator(module, AcceleratorConfig(default_ntiles=2),
                            trace=trace)
    function, args = setup(acc.memory)
    result = acc.run(function, args)
    return acc, trace, result.retval


def racy_setup(memory):
    a = memory.alloc_array(I32, list(range(1, 9)))
    out = memory.alloc_array(I32, [0])
    return "racy_sum", [a, out, 8]


def clean_setup(memory):
    a = memory.alloc_array(I32, list(range(8)))
    return "double_all", [a, 8]


class TestDynamicChecker:
    def test_racy_run_observes_conflicts(self):
        _, trace, _ = traced_run("racy_sum", racy_setup)
        conflicts = race_check(trace)
        assert conflicts
        # every conflict involves the out cell, with at least one write
        for conflict in conflicts:
            assert conflict.a.is_write or conflict.b.is_write
            assert conflict.a.addr == conflict.b.addr
            assert conflict.a.gid != conflict.b.gid

    def test_clean_run_is_conflict_free(self):
        _, trace, _ = traced_run("double_all", clean_setup)
        assert race_check(trace) == []

    def test_recursive_run_is_conflict_free(self):
        """fib stresses the happens-before reconstruction: recursive direct
        spawns, per-instance ret_ptr epilogue stores, frame-slot reads of
        both children after the sync — none of it may be misreported."""
        _, trace, retval = traced_run("fib", lambda _mem: ("fib", [10]))
        assert retval == 55
        assert race_check(trace) == []

    def test_untraced_run_is_rejected(self):
        trace = Trace(enabled=True)
        trace.emit(0, "x", "spawn-in", "no payloads anywhere")
        with pytest.raises(AnalysisError, match="structured"):
            DynamicRaceChecker(trace)

    def test_empty_trace_is_trivially_clean(self):
        assert DynamicRaceChecker(Trace(enabled=True)).conflicts() == []


class TestCrossValidation:
    def test_static_findings_confirmed_dynamically(self):
        acc, trace, _ = traced_run("racy_sum", racy_setup)
        findings, _ = find_races(acc.design.graph)
        outcome = cross_validate(findings, trace, acc.design.graph)
        assert outcome.sound
        assert len(outcome.confirmed) == len(findings) == 2
        assert outcome.unobserved == []

    def test_clean_program_nothing_to_confirm(self):
        acc, trace, _ = traced_run("double_all", clean_setup)
        findings, _ = find_races(acc.design.graph)
        assert findings == []
        outcome = cross_validate(findings, trace, acc.design.graph)
        assert outcome.sound
        assert outcome.confirmed == [] and outcome.missed == []

    def test_diagnostic_ops_also_accepted(self):
        """cross_validate takes rendered diagnostics (with .ops) too."""
        acc, trace, _ = traced_run("racy_sum", racy_setup)
        report = analyze_design(acc.design)
        outcome = cross_validate(report.errors, trace, acc.design.graph)
        assert outcome.sound
        assert outcome.confirmed


class TestWorkloadsUnderTracing:
    """Race-free paper workloads, executed with the dynamic checker on:
    results stay correct and no dynamic race is observed."""

    @pytest.mark.parametrize("name", ["saxpy", "fibonacci", "stencil"])
    def test_workload_run_clean(self, name):
        from repro.workloads import REGISTRY

        workload = REGISTRY.get(name)
        trace = Trace(enabled=True)
        result = workload.run(trace=trace)
        assert result.correct
        # Workload.run built its own accelerator, so check with graph=None
        # (pure happens-before reconstruction, no static matching)
        assert race_check(trace) == []
