"""Tests for the prediction cross-validation harness
(repro.analysis.perfcheck)."""

import json

import pytest

from repro.analysis.perfcheck import (
    CheckRecord,
    CheckReport,
    PerfChecker,
    bottleneck_class,
    spearman,
)
from repro.sim import DEFAULT_ENGINE
from repro.workloads import REGISTRY


class TestBottleneckClass:
    @pytest.mark.parametrize("component,reason", [
        ("T0:fib", "memory"),
        ("u0.databox", "allocator-full"),
        ("L1", "mshr-full"),
        ("L1", "resp-backpressure"),
        ("DRAM", "dram-backpressure"),
        ("memnet.mux", "mem-backpressure"),
        ("u2.databox", "cache-backpressure"),
    ])
    def test_memory_class(self, component, reason):
        assert bottleneck_class(component, reason) == "memory"

    @pytest.mark.parametrize("component,reason", [
        ("T0:mergesort", "call-join"),
        ("T1:mergesort.tile0", "call-join"),
    ])
    def test_serial_call_class(self, component, reason):
        assert bottleneck_class(component, reason) == "serial-call"

    @pytest.mark.parametrize("component,reason", [
        ("T0:saxpy", "sync-wait"),
        ("T1:saxpy.t0", "execute"),
        ("T1:saxpy.t0", "tiles-full"),
        ("T0:image_scale", "dispatch"),
        ("tasknet.spawn_arb", "spawn-network"),
        ("tasknet.join_arb", "join-network"),
        ("T0:fib", "spawn-backpressure"),
        ("T1:fib.t0", "output-backpressure"),
    ])
    def test_spawn_throughput_class(self, component, reason):
        assert bottleneck_class(component, reason) == "spawn-throughput"

    def test_memory_component_wins_over_unknown_reason(self):
        assert bottleneck_class("u0.databox", "busy") == "memory"
        assert bottleneck_class("L1.bank0", "busy") == "memory"


class TestSpearman:
    def test_perfect_correlation(self):
        assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == \
            pytest.approx(1.0)

    def test_perfect_anticorrelation(self):
        assert spearman([1, 2, 3, 4], [40, 30, 20, 10]) == \
            pytest.approx(-1.0)

    def test_monotone_transform_invariance(self):
        xs = [3.0, 1.0, 4.0, 1.5, 9.0]
        assert spearman(xs, [x ** 3 for x in xs]) == pytest.approx(1.0)

    def test_ties_get_averaged_ranks(self):
        rho = spearman([1, 2, 2, 3], [10, 20, 20, 30])
        assert rho == pytest.approx(1.0)

    def test_degenerate_inputs(self):
        assert spearman([], []) == 0.0
        assert spearman([1], [2]) == 0.0
        assert spearman([5, 5, 5], [1, 2, 3]) == 0.0


def _record(workload="w", tiles=1, scale=1, predicted=100, actual=100,
            predicted_class="memory", actual_class="memory",
            predict_seconds=0.001, sim_seconds=1.0) -> CheckRecord:
    return CheckRecord(
        workload=workload, tiles=tiles, scale=scale, engine="compiled",
        predicted_cycles=predicted, actual_cycles=actual,
        rel_error=(predicted - actual) / actual,
        predicted_bottleneck=f"x:{predicted_class}",
        actual_bottleneck=f"y:{actual_class}",
        predicted_class=predicted_class, actual_class=actual_class,
        class_match=(predicted_class == actual_class),
        predict_seconds=predict_seconds, sim_seconds=sim_seconds)


class TestCheckReport:
    def test_aggregates(self):
        report = CheckReport(records=[
            _record(predicted=100, actual=100),
            _record(predicted=220, actual=200),
            _record(predicted=300, actual=400,
                    predicted_class="spawn-throughput"),
        ])
        assert report.spearman == pytest.approx(1.0)
        assert report.median_abs_rel_error == pytest.approx(0.1)
        assert report.class_match_rate == pytest.approx(2 / 3)
        assert report.median_speedup == pytest.approx(1000.0)
        assert report.aggregate_speedup == pytest.approx(1000.0)

    def test_empty_report(self):
        report = CheckReport()
        assert report.spearman == 0.0
        assert report.median_abs_rel_error == 0.0
        assert report.class_match_rate == 0.0
        assert report.median_speedup == 0.0
        assert report.aggregate_speedup == 0.0

    def test_as_dict_json_safe(self):
        report = CheckReport(records=[_record()],
                             build_seconds={"w": 0.01})
        payload = report.as_dict()
        assert payload["schema"] == 1
        assert payload["points"] == 1
        json.dumps(payload)

    def test_render_text(self):
        report = CheckReport(records=[_record(workload="saxpy")])
        text = report.render_text()
        assert "saxpy" in text
        assert "spearman" in text


class TestPerfChecker:
    def test_check_point_runs_both_sides(self):
        checker = PerfChecker()
        record = checker.check_point(REGISTRY.get("saxpy"), 2, 1)
        assert record.predicted_cycles > 0
        assert record.actual_cycles > 0
        assert record.engine == DEFAULT_ENGINE
        assert record.predicted_class in (
            "memory", "spawn-throughput", "serial-call")
        assert record.actual_class in (
            "memory", "spawn-throughput", "serial-call")
        assert record.predict_seconds < record.sim_seconds

    def test_model_reused_across_points(self):
        checker = PerfChecker()
        workload = REGISTRY.get("saxpy")
        checker.predict_point(workload, 1, 1)
        model = checker._models["saxpy"][0]
        checker.predict_point(workload, 4, 2)
        assert checker._models["saxpy"][0] is model


def test_bottleneck_class_matches_simulator_on_most_points():
    """The headline attribution gate: over a workload × tiles × scale
    matrix, the predicted top bottleneck lands in the simulator's
    stall class on at least half the points."""
    checker = PerfChecker()
    report = checker.check_matrix(
        REGISTRY.all(), tiles=(1, 4), scales=(1, 2))
    assert len(report.records) >= 20
    assert report.class_match_rate >= 0.5, report.render_text()
    # the harness scores ranking too — sanity-floor it well below the
    # bench gate so this stays a smoke test, not a second benchmark
    assert report.spearman >= 0.8, report.render_text()
