"""SweepRunner: failure isolation, deterministic ordering, caching,
and parallel/sequential equivalence."""

import os
import pickle
import time

import pytest

from repro.errors import CacheError, TapasError
from repro.exp import (
    ResultCache,
    SweepRunner,
    config_from_spec,
    expand_grid,
    progress_printer,
    register_evaluator,
    workload_points,
)
from repro.workloads import REGISTRY


def _toy(spec):
    if spec.get("boom"):
        raise ValueError(f"point {spec['n']} exploded")
    if spec.get("die"):
        os._exit(1)
    if spec.get("sleep"):
        time.sleep(spec["sleep"])
    return {"n": spec["n"], "square": spec["n"] ** 2}


# registered at import so fork-started pool workers inherit it
register_evaluator("toy", _toy, replace=True)
# the same evaluator with a program identity, as the built-in ones have
register_evaluator("toy_program", _toy, replace=True,
                   program_text=lambda spec: spec["program"])


def _toy_points(n, **extra):
    return [{"evaluator": "toy", "n": i, **extra} for i in range(n)]


def test_expand_grid_deterministic():
    grid = expand_grid({"a": [1, 2], "b": ["x", "y"]})
    assert grid == [{"a": 1, "b": "x"}, {"a": 1, "b": "y"},
                    {"a": 2, "b": "x"}, {"a": 2, "b": "y"}]


def test_sequential_results_in_point_order():
    result = SweepRunner(jobs=1).run(_toy_points(5))
    assert [r["value"]["n"] for r in result.records] == list(range(5))
    assert result.summary["errors"] == 0
    assert result.summary["points"] == 5


def test_failure_isolation():
    """One crashing point yields a structured error record; every other
    point still completes."""
    points = _toy_points(4)
    points[2]["boom"] = True
    result = SweepRunner(jobs=1).run(points)
    assert result.summary["errors"] == 1
    bad = result.records[2]
    assert bad["status"] == "error"
    assert bad["value"] is None
    assert bad["error"]["type"] == "ValueError"
    assert "point 2 exploded" in bad["error"]["message"]
    assert "Traceback" in bad["error"]["traceback"]
    assert [r["value"]["n"] for i, r in enumerate(result.records)
            if i != 2] == [0, 1, 3]


def test_parallel_matches_sequential():
    """Fan-out must be invisible in the records: same values, same
    order, regardless of which worker finished first."""
    points = _toy_points(6)
    # reverse-staggered sleeps so completion order != point order
    for i, p in enumerate(points):
        p["sleep"] = (len(points) - i) * 0.01
    seq = SweepRunner(jobs=1).run(points)
    par = SweepRunner(jobs=2).run(points)
    def strip(r):
        return {k: r[k] for k in ("spec", "status", "value", "error")}
    assert [strip(r) for r in seq.records] == [strip(r) for r in par.records]


def test_parallel_failure_isolation():
    points = _toy_points(4)
    points[1]["boom"] = True
    result = SweepRunner(jobs=2).run(points)
    assert result.summary["errors"] == 1
    assert result.records[1]["status"] == "error"
    assert [r["value"]["n"] for i, r in enumerate(result.records)
            if i != 1] == [0, 2, 3]


def test_dead_worker_costs_one_point(tmp_path):
    """A worker process that dies (here ``os._exit``) loses the point it
    was running — a structured ``WorkerDied`` record, never cached — and
    is replaced: every other point completes."""
    points = _toy_points(6, sleep=0.05)  # long enough for the new lane
    points[2]["die"] = True
    cache = ResultCache(tmp_path)
    result = SweepRunner(jobs=2, cache=cache).run(points)
    assert result.summary["errors"] == 1
    dead = result.records[2]
    assert (dead["status"], dead["value"], dead["worker"]) == (
        "error", None, None)
    assert dead["error"]["type"] == "WorkerDied"
    assert [r["value"]["n"] for i, r in enumerate(result.records)
            if i != 2] == [0, 1, 3, 4, 5]
    workers = result.summary["telemetry"]["workers"]
    assert sum(w["points"] for w in workers.values()) == 5
    assert len(workers) == 3  # the lane that died came back as a new process
    assert len(list(tmp_path.rglob("*.json"))) == 5


def test_choose_point_rule():
    """The lane dispatch rule, as a table: a pending point of a program
    this lane has run; else of a program no lane has claimed; else of the
    program with the largest backlog. Ties go to the earliest point."""
    from repro.exp.runner import choose_point

    a, b, c = ("toy", "a"), ("toy", "b"), ("toy", "c")
    table = [
        # pending programs,  mine,  claimed,    chosen position
        ([a, b, c],          set(), set(),      0),   # nothing claimed yet
        ([a, b, c],          {b},   {a, b},     1),   # own program first
        ([a, b, b],          {b},   {a, b},     1),   # ... its earliest point
        ([a, b, c],          set(), {a},        1),   # else first unclaimed
        ([a, b, c],          {c},   {a, b, c},  2),   # own beats unclaimed
        ([a, b, b, a, b],    set(), {a, b},     1),   # else largest backlog
        ([a, b, b, a],       {c},   {a, b, c},  0),   # backlog tie: earliest
        ([b],                {a},   {a, b},     0),
    ]
    for programs, mine, claimed, position in table:
        before = (list(programs), set(mine), set(claimed))
        assert choose_point(programs, mine, claimed) == position, programs
        assert (programs, mine, claimed) == before  # pure: nothing mutated


def test_lanes_keep_point_order_and_summary_shape():
    """Two programs x three points on two lanes: records in point order,
    the summary exactly as the inline run shapes it, and each program's
    points on one worker (its lane had run it; the other had its own)."""
    points = [{"evaluator": "toy_program", "program": program, "n": n,
               "sleep": 0.05}
              for n in range(3) for program in ("p", "q")]
    inline = SweepRunner(jobs=1).run(points)
    lanes = SweepRunner(jobs=2).run(points)
    assert [r["spec"] for r in lanes.records] == points
    assert lanes.values == inline.values
    assert set(lanes.summary) == set(inline.summary)
    assert set(lanes.summary["telemetry"]) == set(inline.summary["telemetry"])
    assert {key: lanes.summary[key] for key in (
        "points", "cache_hits", "cache_misses", "errors")} == {
        key: inline.summary[key] for key in (
            "points", "cache_hits", "cache_misses", "errors")}
    owners = {}
    for record in lanes.records:
        owners.setdefault(record["spec"]["program"], set()).add(
            record["worker"])
    assert all(len(workers) == 1 for workers in owners.values())
    assert owners["p"] != owners["q"]


def test_kernel_reuse_is_telemetry_not_result(tmp_path):
    """What a point compiled and what it found loaded rides beside
    ``seconds``/``worker`` and is summed per worker; it never enters
    ``value``, which a cached replay must reproduce field for field."""
    from repro.sim.compile import clear_kernel_cache

    clear_kernel_cache()
    points = workload_points(["fibonacci"], tiles=[1, 2], scales=1,
                             engines=["compiled"])
    cache = ResultCache(tmp_path)
    cold = SweepRunner(jobs=1, cache=cache).run(points)
    first, second = (record["kernel_cache"] for record in cold.records)
    assert (first["shells_compiled"], first["steppers_compiled"]) == (1, 1)
    assert (second["shells_compiled"], second["steppers_compiled"],
            second["steppers_reused"]) == (1, 0, 1)
    assert first["compile_seconds"] > 0
    assert "kernel_cache" not in str(cold.values)
    worker, = cold.summary["telemetry"]["workers"].values()
    assert worker["kernel_cache"]["steppers_compiled"] == 1
    assert worker["kernel_cache"]["shells_compiled"] == 2
    warm = SweepRunner(jobs=1, cache=ResultCache(tmp_path)).run(points)
    assert warm.values == cold.values
    assert all("kernel_cache" not in record for record in warm.records)


def test_summary_carries_telemetry_block():
    result = SweepRunner(jobs=2).run(_toy_points(4))
    telemetry = result.summary["telemetry"]
    assert telemetry["point_seconds"]["count"] == 4
    assert telemetry["queue_wait_seconds"]["count"] == 4
    workers = telemetry["workers"]
    assert workers and sum(w["points"] for w in workers.values()) == 4
    for stats in workers.values():
        assert stats["busy_seconds"] >= 0
        assert 0 <= stats["utilization"] <= 1
    assert "cache" not in telemetry  # no cache attached to this run
    # every computed record carries its pool queue wait
    assert all(r["queue_wait"] >= 0 for r in result.records)
    # histograms: 20 fixed x2 bounds from 100us (so blocks of different
    # sweeps merge), ``le`` inclusive, empty buckets left out, and what
    # exceeds the last bound (~52 s) counted under "+Inf"
    waits = (0.0001, 0.00015, 3.0, 500.0)
    block = SweepRunner._telemetry(
        [{"worker": 7, "cache_hit": False, "seconds": 0.5, "queue_wait": w}
         for w in waits], wall=1.0)["queue_wait_seconds"]
    assert block == {
        "type": "histogram", "count": 4, "sum": round(sum(waits), 9),
        "min": 0.0001, "max": 500.0, "mean": round(sum(waits) / 4, 9),
        "buckets": [{"le": 0.0001, "count": 1}, {"le": 0.0002, "count": 1},
                    {"le": 0.0001 * 2 ** 15, "count": 1},
                    {"le": "+Inf", "count": 1}]}
    for histogram in (telemetry["point_seconds"],
                      telemetry["queue_wait_seconds"]):
        assert set(histogram) == set(block)
        assert sum(b["count"] for b in histogram["buckets"]) == 4
        assert {b["le"] for b in histogram["buckets"]} <= {
            0.0001 * 2 ** i for i in range(20)}


def test_telemetry_counts_cache_traffic(tmp_path):
    cache = ResultCache(tmp_path)
    cold = SweepRunner(jobs=1, cache=cache).run(_toy_points(2))
    assert cold.summary["telemetry"]["cache"] == {
        "hits": 0, "misses": 2, "corruption_evictions": 0}
    warm_cache = ResultCache(tmp_path)
    warm = SweepRunner(jobs=1, cache=warm_cache).run(_toy_points(2))
    assert warm.summary["telemetry"]["cache"]["hits"] == 2
    # cache hits never ran, so they contribute no latency observations
    assert warm.summary["telemetry"]["point_seconds"]["count"] == 0


def test_cache_hits_on_rerun(tmp_path):
    cache = ResultCache(tmp_path)
    points = _toy_points(3)
    cold = SweepRunner(jobs=1, cache=cache).run(points)
    assert cold.summary == {**cold.summary, "cache_hits": 0,
                            "cache_misses": 3}
    warm = SweepRunner(jobs=1, cache=cache).run(points)
    assert warm.summary["cache_hits"] == 3
    assert warm.summary["cache_misses"] == 0
    for a, b in zip(cold.records, warm.records):
        assert a["value"] == b["value"]
        assert b["cache_hit"] is True
        assert b["worker"] is None


def test_errors_never_cached(tmp_path):
    cache = ResultCache(tmp_path)
    points = _toy_points(2)
    points[0]["boom"] = True
    first = SweepRunner(jobs=1, cache=cache).run(points)
    assert first.summary["errors"] == 1
    second = SweepRunner(jobs=1, cache=cache).run(points)
    # the failing point is retried (and fails again); the good one hits
    assert second.summary["cache_hits"] == 1
    assert second.records[0]["status"] == "error"
    assert second.records[0]["cache_hit"] is False


@pytest.mark.parametrize("jobs", [1, 2])
def test_unwritable_cache_fails_the_sweep_closed(tmp_path, jobs):
    """A root that is an existing regular file cannot hold entries: the
    first computed point's write raises ``CacheError``, not ``OSError``."""
    root = tmp_path / "occupied"
    root.write_text("", encoding="utf-8")
    with pytest.raises(CacheError, match="occupied"):
        SweepRunner(jobs=jobs, cache=ResultCache(root)).run(_toy_points(2))


def test_partial_sweep_resumes(tmp_path):
    """A sweep interrupted partway resumes: already-computed points are
    served from the cache, only the remainder executes."""
    cache = ResultCache(tmp_path)
    SweepRunner(jobs=1, cache=cache).run(_toy_points(2))
    result = SweepRunner(jobs=1, cache=cache).run(_toy_points(5))
    assert result.summary["cache_hits"] == 2
    assert result.summary["cache_misses"] == 3
    assert [r["value"]["n"] for r in result.records] == list(range(5))


def test_progress_reporting():
    seen = []
    runner = SweepRunner(jobs=1,
                         progress=lambda done, total, el: seen.append(
                             (done, total)))
    runner.run(_toy_points(3))
    assert seen[0] == (0, 3)
    assert seen[-1] == (3, 3)
    assert [d for d, _ in seen] == sorted(d for d, _ in seen)


def test_progress_printer_writes_one_rewritten_line():
    import io

    stream = io.StringIO()
    report = progress_printer(stream)
    report(1, 2, 0.5)
    report(2, 2, 1.0)
    assert stream.getvalue() == (
        "sweep: 1/2 points (0.5s elapsed, eta 0.5s)\r"
        "sweep: 2/2 points (1.0s elapsed, eta 0.0s)\n")


def test_unknown_evaluator_is_structured_error():
    result = SweepRunner(jobs=1).run([{"evaluator": "nonsense"}])
    assert result.records[0]["status"] == "error"
    assert result.records[0]["error"]["type"] == "TapasError"


def test_duplicate_registration_rejected():
    with pytest.raises(TapasError):
        register_evaluator("toy", _toy)


# -- the built-in workload evaluator --------------------------------------

def test_workload_evaluator_end_to_end(tmp_path):
    cache = ResultCache(tmp_path)
    points = workload_points(["fibonacci"], tiles=[1, 2], scales=1,
                             engines=["event", "dense"])
    assert len(points) == 4
    result = SweepRunner(jobs=1, cache=cache).run(points)
    assert result.summary["errors"] == 0
    values = result.values
    # engines bit-identical per tile count, scaling visible across tiles
    by_point = {(v["tiles"], v["engine"]): v["cycles"] for v in values}
    assert by_point[(1, "event")] == by_point[(1, "dense")]
    assert by_point[(2, "event")] == by_point[(2, "dense")]
    # a warm re-run replays identical values from the cache
    warm = SweepRunner(jobs=1, cache=cache).run(points)
    assert warm.summary["cache_hits"] == 4
    assert warm.values == values


def test_config_from_spec_rebuilds_every_override():
    """The worker-side inverse of a spec's JSON ``overrides``: a board by
    name, cache geometry and per-unit params as field dicts, scalars as
    they are — and nothing silently dropped."""
    from repro.accel import ARRIA_10
    from repro.errors import ConfigError

    workload = REGISTRY.get("saxpy")
    config = config_from_spec(workload, {
        "tiles": 2, "engine": "dense", "overrides": {
            "board": ARRIA_10.name,
            "cache": {"size_bytes": 1024, "mshr_count": 1},
            "unit_params": {"saxpy": {"ntiles": 3, "queue_depth": 8}},
            "dram_latency_cycles": 270, "memory_model": "scratchpad",
            "scratchpad_latency": 2, "analysis_level": "warn",
            "memory_bytes": 1 << 20}})
    assert (config.default_ntiles, config.engine) == (2, "dense")
    assert config.board is ARRIA_10
    assert (config.cache.size_bytes, config.cache.mshr_count) == (1024, 1)
    assert config.params_for("saxpy").ntiles == 3
    assert config.params_for("saxpy").queue_depth == 8
    assert (config.dram_latency_cycles, config.memory_model,
            config.scratchpad_latency, config.analysis_level,
            config.memory_bytes) == (270, "scratchpad", 2, "warn", 1 << 20)
    with pytest.raises(ConfigError, match="unknown board 'Stratix'"):
        config_from_spec(workload, {"overrides": {"board": "Stratix"}})
    with pytest.raises(ConfigError, match=r"override\(s\) \['ntile'\]"):
        config_from_spec(workload, {"overrides": {"ntile": 2}})


def test_workload_result_picklable():
    """Workload.run results cross process boundaries: no live simulator
    or component references allowed in the result object."""
    workload = REGISTRY.get("fibonacci")
    result = workload.run(workload.default_config(2), scale=1)
    clone = pickle.loads(pickle.dumps(result))
    assert clone.cycles == result.cycles
    assert clone.stats == result.stats
    assert clone.correct is True
