"""Bench-results schema: records and the sweep summary."""

import pytest

from repro.reports.benchjson import (
    BENCH_SCHEMA_VERSION,
    RECORD_KEYS,
    bench_document,
    bench_record,
    sweep_record,
)

SWEEP = {"points": 2, "jobs": 2, "wall_seconds": 1.5,
         "cache_hits": 1, "cache_misses": 1, "errors": 0}


def test_record_carries_every_key():
    record = bench_record("saxpy", cycles=100)
    assert set(RECORD_KEYS) <= set(record)
    assert record["cache_hit"] is None      # not run through the sweeper
    assert record["worker"] is None
    assert record["host_seconds"] is None   # no engine stats supplied
    assert record["sim_cycles_per_host_second"] is None


def test_record_lifts_host_time_out_of_engine():
    engine = {"name": "event", "host_seconds": 0.25,
              "sim_cycles_per_host_second": 4000.0}
    record = bench_record("saxpy", cycles=1000, engine=engine)
    assert record["host_seconds"] == 0.25
    assert record["sim_cycles_per_host_second"] == 4000.0


def test_document_schema_and_sweep_block():
    doc = bench_document("b", [bench_record("w", cycles=1)], sweep=SWEEP)
    assert doc["schema"] == BENCH_SCHEMA_VERSION == 5
    assert doc["sweep"]["cache_hits"] == 1
    assert doc["telemetry"] is None
    assert "history" not in doc
    # no sweep block is legal (non-sweep benches)
    assert bench_document("b", [])["sweep"] is None


def test_document_lifts_telemetry_out_of_sweep_summary():
    """A SweepRunner summary carries its telemetry block inline; the
    document keeps the strict sweep keys and hoists telemetry up."""
    summary = dict(SWEEP, telemetry={"workers": {}})
    doc = bench_document("b", [], sweep=summary)
    assert doc["sweep"] == SWEEP
    assert doc["telemetry"] == {"workers": {}}


def test_document_rejects_incomplete_records_and_sweeps():
    with pytest.raises(ValueError):
        bench_document("b", [{"workload": "w"}])
    with pytest.raises(ValueError):
        bench_document("b", [], sweep={"points": 1})


def test_sweep_record_carries_provenance():
    point = {"spec": {"workload": "w"}, "status": "ok", "cache_hit": True,
             "worker": 4242, "seconds": 0.1, "queue_wait": 0.02,
             "value": {"cycles": 77, "stats": None}, "error": None}
    record = sweep_record(point, "w", config={"ntiles": 2})
    assert record["cycles"] == 77
    assert record["cache_hit"] is True
    assert record["worker"] == 4242
    assert record["metrics"]["queue_wait"] == 0.02


def test_sweep_record_structured_error():
    point = {"spec": {"workload": "w"}, "status": "error", "cache_hit": False,
             "worker": 1, "seconds": 0.1, "value": None,
             "error": {"type": "ValueError", "message": "boom",
                       "traceback": "..."}}
    record = sweep_record(point, "w")
    assert record["cycles"] is None
    assert record["metrics"]["error"]["type"] == "ValueError"
