"""Run registry: append/load round-trip, series diffing, regressions."""

import json

import pytest

from repro.telemetry.history import (
    HISTORY_RECORD_KEYS,
    append_run,
    config_fingerprint,
    diff_history,
    load_history,
    run_record,
    series_key,
)


def _record(name="saxpy", cycles=1000, ts=1.0, engine="event",
            config=None, **kwargs):
    return run_record("run", name, engine=engine, cycles=cycles,
                      config=config or {"tiles": 2}, ts=ts, **kwargs)


def test_record_carries_every_key():
    record = _record(host_seconds=0.5, sim_cycles_per_host_second=2000.0)
    assert set(HISTORY_RECORD_KEYS) == set(record)
    assert record["schema"] == 1
    assert record["fingerprint"] == config_fingerprint({"tiles": 2})


def test_throughput_is_derived_unless_passed():
    key = "sim_cycles_per_host_second"
    assert _record(cycles=1000, host_seconds=0.5)[key] == 2000.0
    assert _record(cycles=1000, host_seconds=0.5, **{key: 7.0})[key] == 7.0
    assert _record(cycles=1000)[key] is None
    assert _record(cycles=None, host_seconds=0.5)[key] is None


def test_append_load_round_trip(tmp_path):
    first = append_run(_record(ts=1.0), tmp_path)
    second = append_run(_record(ts=2.0, cycles=1100), tmp_path)
    assert first["seq"] == 0 and second["seq"] == 1
    assert first["path"] == second["path"]
    records = load_history(tmp_path)
    assert [r["cycles"] for r in records] == [1000, 1100]


def test_loader_skips_corrupt_lines(tmp_path):
    append_run(_record(ts=1.0), tmp_path)
    path = tmp_path / "runs.jsonl"
    with open(path, "a") as handle:
        handle.write("{half a json line\n")
        handle.write(json.dumps({"schema": 99, "alien": True}) + "\n")
    append_run(_record(ts=2.0), tmp_path)
    records = load_history(tmp_path)
    assert len(records) == 2  # corrupt + foreign-schema lines skipped


def test_missing_registry_is_empty(tmp_path):
    assert load_history(tmp_path / "nowhere") == []


def test_series_key_separates_configs():
    a = _record(config={"tiles": 2})
    b = _record(config={"tiles": 4})
    assert series_key(a) != series_key(b)
    assert series_key(a) == series_key(_record(config={"tiles": 2}))


def test_diff_flags_injected_regression():
    """The acceptance path: a >=10% cycle increase between two recorded
    runs of the same series is flagged."""
    records = [_record(ts=1.0, cycles=1000),
               _record(ts=2.0, cycles=1150)]
    (diff,) = diff_history(records, threshold=0.10)
    assert diff["old"] == 1000 and diff["new"] == 1150
    assert diff["drift"] == pytest.approx(0.15)
    assert diff["regression"] is True


def test_diff_below_threshold_not_flagged():
    records = [_record(ts=1.0, cycles=1000),
               _record(ts=2.0, cycles=1050)]
    (diff,) = diff_history(records, threshold=0.10)
    assert diff["regression"] is False


def test_diff_improvement_reported_not_flagged():
    records = [_record(ts=1.0, cycles=1000),
               _record(ts=2.0, cycles=800)]
    (diff,) = diff_history(records, threshold=0.10)
    assert diff["drift"] == pytest.approx(-0.2)
    assert diff["regression"] is False


def test_diff_throughput_metric_inverts_direction():
    """Lower cycles/second is worse: the drift sign is normalised so a
    positive drift always reads 'got worse'."""
    records = [_record(ts=1.0, sim_cycles_per_host_second=1000.0),
               _record(ts=2.0, sim_cycles_per_host_second=800.0)]
    (diff,) = diff_history(records, threshold=0.10,
                           metric="sim_cycles_per_host_second")
    assert diff["drift"] == pytest.approx(0.2)
    assert diff["regression"] is True


def test_diff_never_crosses_series():
    records = [_record(name="a", ts=1.0, cycles=100),
               _record(name="b", ts=2.0, cycles=9000)]
    assert diff_history(records) == []


def test_diff_rejects_unknown_metric():
    with pytest.raises(ValueError):
        diff_history([], metric="nope")


def test_cli_history_round_trip(tmp_path, capsys, monkeypatch):
    """repro history lists, diffs and exits non-zero on regression."""
    from repro.cli import main

    append_run(_record(ts=1.0, cycles=1000), tmp_path)
    append_run(_record(ts=2.0, cycles=1300), tmp_path)

    assert main(["history", "--dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "saxpy" in out and "1300" in out

    assert main(["history", "--dir", str(tmp_path), "--diff"]) == 0
    out = capsys.readouterr().out
    assert "REGRESSION" in out and "+30.0%" in out

    assert main(["history", "--dir", str(tmp_path),
                 "--fail-on-regression"]) == 1

    # a looser threshold lets the same drift pass
    assert main(["history", "--dir", str(tmp_path),
                 "--fail-on-regression", "--threshold", "50"]) == 0
    capsys.readouterr()

    payload = None
    assert main(["history", "--dir", str(tmp_path), "--diff",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["records"]) == 2
    assert payload["diffs"][0]["regression"] is True

    # two real recorded runs of one design are one series with no drift
    monkeypatch.setenv("REPRO_HISTORY_DIR", str(tmp_path / "recorded"))
    for _ in range(2):
        assert main(["run", "saxpy", "--stats-json",
                     str(tmp_path / "stats.json")]) == 0
    assert main(["history", "--fail-on-regression"]) == 0
    out = capsys.readouterr().out
    assert "2 record(s)" in out and "+0.0%" in out
    assert "REGRESSION" not in out
