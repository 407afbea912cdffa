"""Experiment infrastructure: declarative sweeps, parallel execution,
content-addressed result caching.

Every benchmark is a *sweep*: a grid of (workload, config, scale,
engine) points evaluated independently. This package turns that shape
into infrastructure:

* :func:`expand_grid` / :func:`workload_points` — declarative grid
  expansion into plain-JSON point specs,
* :class:`SweepRunner` — fans the points out over worker processes with
  per-job failure isolation and deterministic result ordering,
* :class:`ResultCache` — a content-addressed on-disk cache keyed by
  hash(program text + canonical config + repro version), so re-runs of
  unchanged points are near-instant and interrupted sweeps resume.
"""

from repro.exp.cache import ResultCache, canonical_json
from repro.exp.grid import config_from_spec, expand_grid, workload_points
from repro.exp.runner import (
    SweepResult,
    SweepRunner,
    get_evaluator,
    progress_printer,
    register_evaluator,
)
from repro.fingerprint import code_fingerprint, default_cache_dir

__all__ = [
    "ResultCache", "canonical_json", "code_fingerprint", "default_cache_dir",
    "config_from_spec", "expand_grid", "workload_points",
    "SweepResult", "SweepRunner", "get_evaluator", "progress_printer",
    "register_evaluator",
]
