"""``repro history``: the committed end-to-end ledger as PR pairs."""

import json
import shutil
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import TapasError
from repro.telemetry.history import load_ledger_document

ROOT = Path(__file__).resolve().parents[2]
PARENT = ROOT / "results" / "e2e" / "119979a.json"


@pytest.fixture
def ledger(tmp_path, monkeypatch):
    """A working directory holding ``BENCHMARK.json`` and an empty
    ``results/e2e/``; returns that ledger directory."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    directory = tmp_path / "results" / "e2e"
    directory.mkdir(parents=True)
    monkeypatch.chdir(tmp_path)
    return directory


def _write_pair(directory, pr, wall_factor=1.0):
    document = json.loads(PARENT.read_text())
    (directory / "abc1234.json").write_text(json.dumps(document))
    document["workloads"]["sim_hot"]["end_to_end"]["wall_s"] *= wall_factor
    (directory / f"abc1234-pr{pr}.json").write_text(json.dumps(document))


def test_identical_pair_marks_nothing(ledger, capsys):
    _write_pair(ledger, 7)
    assert main(["history"]) == 0
    out = capsys.readouterr().out
    assert "2 document(s), 1 PR pair(s)" in out
    rows = [line for line in out.splitlines() if line.startswith("PR 7 ")]
    assert len(rows) == 6 and not any("!" in row for row in rows)
    assert "0 ratio(s) marked" in out


def test_regressed_pair_is_marked_and_exits_1(ledger, capsys):
    """wall_s 1.3x its parent's is worse than its 24% bound."""
    _write_pair(ledger, 7, wall_factor=1.3)
    assert main(["history"]) == 1
    out = capsys.readouterr().out
    (row,) = [line for line in out.splitlines() if "sim_hot" in line]
    assert "1.300 !" in row
    assert row.count("!") == 1
    assert "1 ratio(s) marked" in out


def test_pairs_are_ordered_by_pr_number(ledger, capsys):
    _write_pair(ledger, 12)
    document = PARENT.read_text()
    (ledger / "def5678.json").write_text(document)
    (ledger / "def5678-pr9.json").write_text(document)
    assert main(["history"]) == 0
    out = capsys.readouterr().out
    assert out.index("PR 9 ") < out.index("PR 12")


def _error_lines(capsys):
    captured = capsys.readouterr()
    return [line for line in captured.err.splitlines() if line]


def test_orphan_change_document_is_one_error_line(ledger, capsys):
    (ledger / "abc1234-pr7.json").write_text(PARENT.read_text())
    assert main(["history"]) == 1
    (line,) = _error_lines(capsys)
    assert line.startswith("error: ") and "no parent document" in line
    assert "abc1234.json" in line


def test_corrupt_document_is_one_error_line(ledger, capsys):
    _write_pair(ledger, 7)
    (ledger / "abc1234-pr7.json").write_text('{"workloads": {')
    assert main(["history"]) == 1
    (line,) = _error_lines(capsys)
    assert line.startswith("error: ") and "abc1234-pr7.json" in line


def test_missing_ledger_directory_is_one_error_line(ledger, capsys):
    ledger.rmdir()
    assert main(["history"]) == 1
    (line,) = _error_lines(capsys)
    assert line.startswith("error: ") and "no ledger directory" in line


def test_loader_names_a_missing_workload_or_metric(tmp_path):
    declaration = json.loads((ROOT / "BENCHMARK.json").read_text())
    values = load_ledger_document(PARENT, declaration)
    assert sorted(values) == sorted(w["name"]
                                    for w in declaration["workloads"])
    assert set(values["sim_hot"]) == {m["name"] for m in
                                      declaration["end_to_end"]} | {
                                          "sim_cycles"}
    document = json.loads(PARENT.read_text())
    del document["workloads"]["sweep_warm"]["end_to_end"]["op_p90_s"]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(document))
    with pytest.raises(TapasError, match="sweep_warm.*op_p90_s"):
        load_ledger_document(path, declaration)
    del document["workloads"]["sim_hot"]
    path.write_text(json.dumps(document))
    with pytest.raises(TapasError, match="sim_hot"):
        load_ledger_document(path, declaration)
