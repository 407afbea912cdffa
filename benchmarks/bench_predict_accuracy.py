"""Cross-validation: the analytical performance model vs the simulator.

The static predictor (``repro predict`` / the ``static`` sweep
evaluator) exists so design-space exploration can rank points without
paying for simulation. This bench measures whether it has earned that
role, over a benchmark-suite × tiles × scale matrix:

* **rank fidelity** — Spearman correlation between predicted and
  simulated cycle counts (what a sweep actually consumes);
* **magnitude** — median absolute relative cycle error;
* **attribution** — how often the predicted top bottleneck falls in the
  same coarse class (memory / spawn-throughput / serial-call) as the
  simulator's top stall source;
* **cost** — aggregate speedup of the predictor over the simulator
  across the matrix (floor ~35% under the ~1000x measured on the kernel).

Known model limits, visible in the table: recursive call-join spans are
conservatively over-predicted (mergesort ~2x: the model cannot know
which cleanup loop a merge takes), and for spawner-serial-bound codes
(saxpy) the model names the cause — root spawn rate — where the
simulator's ledger counts the symptom, idle tiles waiting on loads.

``image_scale`` at scale 4 is excluded: that point deadlocks under the
default queue depths (a known repro limit, unrelated to the predictor).
The slowest scale-4 sims (stencil, mergesort) are also left out to keep
the bench under a minute; the remaining 72-point grid spans 3 decades
of cycle counts.
"""

from repro.analysis.perfcheck import PerfChecker
from repro.reports import render_table
from repro.reports.benchjson import bench_record
from repro.workloads import REGISTRY

NAMES = ["matrix_add", "saxpy", "stencil", "dedup", "mergesort",
         "fibonacci", "image_scale"]
TILES = (1, 2, 4, 8)
#: workloads cheap enough to simulate at scale 4 with an observer on
SCALE4 = ("matrix_add", "saxpy", "dedup", "fibonacci")

MIN_POINTS = 30
MIN_SPEARMAN = 0.90
MAX_MEDIAN_ERROR = 0.35
MIN_SPEEDUP = 650.0


def _grid():
    for name in NAMES:
        scales = (1, 2, 4) if name in SCALE4 else (1, 2)
        for scale in scales:
            for tiles in TILES:
                yield name, tiles, scale


def test_predict_accuracy(benchmark, save_result, save_json):
    checker = PerfChecker()

    def run():
        from repro.analysis.perfcheck import CheckReport
        report = CheckReport()
        for name, tiles, scale in _grid():
            workload = REGISTRY.get(name)
            report.records.append(
                checker.check_point(workload, tiles, scale))
        for name, (_model, build) in checker._models.items():
            report.build_seconds[name] = build
        return report

    report = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    for r in report.records:
        rows.append([
            r.workload, r.tiles, r.scale, r.actual_cycles,
            r.predicted_cycles, f"{r.rel_error:+.1%}",
            r.predicted_class, r.actual_class,
            "yes" if r.class_match else "no",
            f"{r.sim_seconds / max(r.predict_seconds, 1e-9):,.0f}x"])
    text = render_table(
        ["Workload", "Tiles", "Scale", "Simulated", "Predicted", "Error",
         "Predicted class", "Simulated class", "Match", "Speedup"],
        rows,
        title=f"Static prediction vs the simulator — "
              f"{len(report.records)} points, "
              f"spearman={report.spearman:.4f}, "
              f"median |err|={report.median_abs_rel_error:.1%}, "
              f"class match={report.class_match_rate:.0%}, "
              f"aggregate speedup={report.aggregate_speedup:,.0f}x")
    save_result("predict_accuracy", text)

    total_sim = sum(r.sim_seconds for r in report.records)
    total_predict = sum(r.predict_seconds for r in report.records)
    summary_record = bench_record(
        "summary", config=None, cycles=None,
        points=len(report.records),
        spearman=round(report.spearman, 4),
        median_abs_rel_error=round(report.median_abs_rel_error, 4),
        class_match_rate=round(report.class_match_rate, 4),
        median_speedup=round(report.median_speedup, 1),
        aggregate_speedup=round(report.aggregate_speedup, 1),
        total_sim_seconds=round(total_sim, 3),
        total_predict_seconds=round(total_predict, 6),
        model_build_seconds={k: round(v, 6) for k, v in
                             sorted(report.build_seconds.items())})
    save_json("predict_accuracy", [summary_record] + [
        bench_record(
            r.workload,
            config={"ntiles": r.tiles, "scale": r.scale,
                    "engine": r.engine},
            cycles=r.actual_cycles,
            predicted_cycles=r.predicted_cycles,
            rel_error=round(r.rel_error, 4),
            predicted_bottleneck=r.predicted_bottleneck,
            actual_bottleneck=r.actual_bottleneck,
            predicted_class=r.predicted_class,
            actual_class=r.actual_class,
            class_match=r.class_match,
            predict_seconds=round(r.predict_seconds, 6),
            sim_seconds=round(r.sim_seconds, 6))
        for r in report.records],
        sweep={"points": len(report.records), "jobs": 1,
               "wall_seconds": round(total_sim + total_predict, 3),
               "cache_hits": 0, "cache_misses": len(report.records),
               "errors": 0})

    assert len(report.records) >= MIN_POINTS
    assert report.spearman >= MIN_SPEARMAN, (
        f"predicted/simulated rank correlation {report.spearman:.4f} "
        f"below {MIN_SPEARMAN}")
    assert report.median_abs_rel_error <= MAX_MEDIAN_ERROR, (
        f"median relative cycle error {report.median_abs_rel_error:.1%} "
        f"above {MAX_MEDIAN_ERROR:.0%}")
    assert report.aggregate_speedup >= MIN_SPEEDUP, (
        f"aggregate predictor speedup {report.aggregate_speedup:,.0f}x "
        f"below {MIN_SPEEDUP:,.0f}x")
