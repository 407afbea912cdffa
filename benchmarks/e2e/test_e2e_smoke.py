"""Functional check of the end-to-end ledger at minimum sizes.

Not part of tier-1 (``testpaths = tests``); run with
``pytest benchmarks/e2e``.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
DECLARATION = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run(*args):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", *args],
        cwd=str(ROOT), stdout=subprocess.PIPE, text=True, timeout=170)
    assert done.returncode == 0, done.stdout
    return done.stdout


def test_smoke_suite_matches_declaration(tmp_path):
    out = tmp_path / "smoke.json"
    run("--trace", "--out", str(out))
    document = json.loads(out.read_text())
    assert list(document["workloads"]) == [
        w["name"] for w in DECLARATION["workloads"]]
    for field in ("nproc", "python", "git_rev", "code_fingerprint", "seed",
                  "loadavg_1m"):
        assert field in document["env"]
    for name, entry in document["workloads"].items():
        assert entry["attempted"] > 0 and entry["failed"] == 0, (
            name, entry["failures"])
        assert entry["end_to_end_detail"]["failed_op_share"] == 0
        assert entry["end_to_end_detail"]["jobs"] in (1, 2)
        assert entry["end_to_end_detail"]["passes"] == 2
        for key in ("end_to_end", "per_layer"):
            declared = [m["name"] for m in DECLARATION[key]]
            assert list(entry[key]) == declared, (name, key)
            for metric, value in entry[key].items():
                assert NAME.fullmatch(metric)
                assert isinstance(value, (int, float)), (name, metric)
        assert all(v > 0 for v in entry["end_to_end"].values()), name
        assert entry["per_layer"]["trace.coverage"] >= 0.95, name
        assert entry["per_layer"]["sim.engine_mismatches"] == 0, name
        assert entry["per_layer"]["analysis.verdict_mismatches"] == 0, name


def test_declared_command_prints_the_contract_line():
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        last = run("--workload", "sim_membound", "--seed", "5",
                   "--trace", str(trace)).strip().splitlines()[-1]
        result = json.loads(last)
        assert sorted(result) == ["attempted", "correct", "failed",
                                  "metrics"]
        assert result["correct"] is True and result["failed"] == 0
        units = {m["name"]: m["unit"] for m in DECLARATION[key]}
        assert {name: m["unit"]
                for name, m in result["metrics"].items()} == units
