"""Guard against silent drift of the committed ``results/*.json``: they
must be readable, recorded under the default engine and still
reproducible from the code they sit beside."""

import glob
import os

import pytest

from repro.reports.benchjson import RECORD_KEYS, read_bench_json
from repro.sim import DEFAULT_ENGINE
from repro.workloads import REGISTRY

RESULTS = os.path.join(os.path.dirname(__file__), "..", "..", "results")
DOCUMENTS = sorted(glob.glob(os.path.join(RESULTS, "*.json")))


@pytest.mark.parametrize("path", DOCUMENTS, ids=map(os.path.basename, DOCUMENTS))
def test_document_is_schema_4_under_the_default_engine(path):
    document = read_bench_json(path)  # rejects anything but schema 5
    assert document["records"]
    # sim_throughput.json is the one bench that compares the engines
    compares_engines = os.path.basename(path) == "sim_throughput.json"
    for record in document["records"]:
        assert set(RECORD_KEYS) <= set(record)
        named = {(record["engine"] or {}).get("name"),
                 (record["config"] or {}).get("engine")} - {None}
        assert compares_engines or named <= {DEFAULT_ENGINE}, record


def test_fig15_one_tile_cycles_reproduce():
    """One point per workload of the committed Figure 15 grid, simulated
    again: a pass or model change that moves cycle counts must regenerate
    ``results/`` in the same PR."""
    document = read_bench_json(os.path.join(RESULTS,
                                            "fig15_tile_scaling.json"))
    points = [r for r in document["records"] if r["config"]["ntiles"] == 1]
    assert sorted(r["workload"] for r in points) == sorted(REGISTRY.names())
    for record in points:
        workload = REGISTRY.get(record["workload"])
        result = workload.run(workload.default_config(1),
                              scale=record["config"]["scale"])
        assert result.correct
        assert result.cycles == record["cycles"], record["workload"]
