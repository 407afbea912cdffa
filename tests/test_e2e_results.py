"""``results/e2e/*.json``: the perf trajectory as files.

One document per measured revision, written by
``python3 benchmarks/e2e/run.py --trace --out results/e2e/<rev>.json``
(``<rev>`` is the commit measured; a PR measures its parent under the
parent's hash and its own working tree under ``<parent>-pr<N>``, since a
commit cannot name itself). The files are only worth committing if
``benchmarks/e2e/compare.py`` and ``repro history`` can still read them.
"""

import importlib.util
import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DECLARATION = json.loads((ROOT / "BENCHMARK.json").read_text())


def _load_compare():
    spec = importlib.util.spec_from_file_location(
        "e2e_compare", ROOT / "benchmarks" / "e2e" / "compare.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_committed_ledger_result_is_readable_by_compare():
    paths = sorted((ROOT / "results" / "e2e").glob("*.json"))
    assert len(paths) >= 2, "a perf PR commits its parent's and its own"
    workloads = sorted(w["name"] for w in DECLARATION["workloads"])
    end_to_end = {m["name"] for m in DECLARATION["end_to_end"]}
    compare = _load_compare()
    for path in paths:
        document = json.loads(path.read_text())
        assert sorted(document["workloads"]) == workloads, path.name
        collected = compare.collect([str(path)])
        assert sorted(collected) == workloads, path.name
        for name, side in collected.items():
            assert side["attempted"] > 0 and side["failed"] == 0, (
                path.name, name)
            assert end_to_end | {"sim_cycles"} <= set(side["metrics"]), (
                path.name, name)


def test_repro_history_renders_every_committed_pair(monkeypatch, capsys):
    from repro.cli import main

    monkeypatch.chdir(ROOT)
    assert main(["history"]) == 0
    out = capsys.readouterr().out
    assert "16 document(s), 8 PR pair(s)" in out
    rows = [line for line in out.splitlines() if re.match(r"PR \d", line)]
    assert len(rows) == 8 * len(DECLARATION["workloads"])
    assert not any("!" in row for row in rows)
    assert "0 ratio(s) marked" in out
