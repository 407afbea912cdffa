"""Shared benchmark infrastructure.

Every bench regenerates one table or figure from the paper's evaluation
(§V). The reproduced rows are printed and also written to
``results/<name>.txt`` so EXPERIMENTS.md can reference them.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "..", "results")


@pytest.fixture
def save_result():
    """Print a reproduced table and persist it under results/."""

    def _save(name: str, text: str):
        os.makedirs(RESULTS_DIR, exist_ok=True)
        path = os.path.join(RESULTS_DIR, f"{name}.txt")
        with open(path, "w") as handle:
            handle.write(text + "\n")
        print()
        print(text)

    return _save


@pytest.fixture
def save_json():
    """Persist machine-readable records under results/<name>.json.

    ``records`` is a list of dicts from
    :func:`repro.reports.benchjson.bench_record`; the document schema is
    validated on write so every bench stays comparable across PRs.
    """
    from repro.reports.benchjson import write_bench_json

    def _save(name: str, records, sweep=None, telemetry=None):
        os.makedirs(RESULTS_DIR, exist_ok=True)
        write_bench_json(os.path.join(RESULTS_DIR, f"{name}.json"), name,
                         records, sweep=sweep, telemetry=telemetry)

    return _save


@pytest.fixture
def sweep_runner():
    """The bench-standard SweepRunner (parallel workers + result cache,
    both controlled by REPRO_BENCH_JOBS / REPRO_BENCH_CACHE)."""
    import sweeplib

    return sweeplib.make_runner()
