"""The persistent run registry: every bench/sweep/run leaves a record.

Each recorded run appends one JSON line to
``results/history/runs.jsonl`` (override the directory with
``$REPRO_HISTORY_DIR``): git revision, config fingerprint, engine and
the key metrics — the seed of a continuous performance trajectory that
survives across PRs. ``repro history`` lists the registry, diffs the
latest runs of each series against their predecessors, and flags
regressions beyond a configurable drift threshold.

A *series* is the stable identity of a measurement:
``(kind, name, engine, config fingerprint)`` — two records compare only
when they measured the same thing under the same configuration. Records
are append-only and self-describing (``schema`` per line), and the
loader skips corrupt lines instead of dying: a half-written tail from a
killed run costs one record, not the registry.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro import __version__
from repro.exp.cache import canonical_json

HISTORY_SCHEMA = 1

#: environment override for the registry directory
HISTORY_DIR_ENV = "REPRO_HISTORY_DIR"

#: the single append-only registry file inside the history directory
HISTORY_FILE = "runs.jsonl"

#: keys every history record carries (value may be None)
HISTORY_RECORD_KEYS = (
    "schema", "ts", "kind", "name", "engine", "git_rev", "repro_version",
    "fingerprint", "cycles", "host_seconds", "sim_cycles_per_host_second",
    "config", "metrics",
)

#: record fields a regression check may compare (higher == worse for
#: cycles/host_seconds; higher == better for throughput)
DRIFT_METRICS = ("cycles", "host_seconds", "sim_cycles_per_host_second")


def default_history_dir() -> Path:
    env = os.environ.get(HISTORY_DIR_ENV)
    if env:
        return Path(env)
    return Path("results") / "history"


_git_rev: Optional[str] = None
_git_rev_known = False


def git_rev() -> Optional[str]:
    """Current ``HEAD`` short hash, or None outside a git checkout.
    Cached per process — one subprocess, many records."""
    global _git_rev, _git_rev_known
    if not _git_rev_known:
        try:
            out = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                capture_output=True, text=True, timeout=10)
            _git_rev = out.stdout.strip() if out.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            _git_rev = None
        _git_rev_known = True
    return _git_rev


def config_fingerprint(config: Any) -> Optional[str]:
    """Short stable hash of a JSON-safe config summary (12 hex chars —
    plenty for a registry that holds thousands of series, and short
    enough to read in a table)."""
    if config is None:
        return None
    payload = canonical_json(config)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]


def run_record(kind: str, name: str, *, engine: Optional[str] = None,
               cycles: Optional[int] = None,
               host_seconds: Optional[float] = None,
               sim_cycles_per_host_second: Optional[float] = None,
               config: Optional[dict] = None,
               metrics: Optional[dict] = None,
               ts: Optional[float] = None) -> Dict[str, Any]:
    """One schema'd registry record. ``kind`` is the producer class
    (``run``/``sweep``/``bench``), ``name`` the workload or bench.
    Throughput not passed is derived from ``cycles / host_seconds``."""
    if sim_cycles_per_host_second is None and cycles and host_seconds:
        sim_cycles_per_host_second = round(cycles / host_seconds, 1)
    record = {
        "schema": HISTORY_SCHEMA,
        "ts": round(time.time() if ts is None else ts, 3),
        "kind": kind,
        "name": name,
        "engine": engine,
        "git_rev": git_rev(),
        "repro_version": __version__,
        "fingerprint": config_fingerprint(config),
        "cycles": cycles,
        "host_seconds": (round(host_seconds, 6)
                         if host_seconds is not None else None),
        "sim_cycles_per_host_second": sim_cycles_per_host_second,
        "config": config,
        "metrics": metrics or {},
    }
    missing = [key for key in HISTORY_RECORD_KEYS if key not in record]
    assert not missing, f"history record missing {missing}"
    return record


def append_run(record: Dict[str, Any],
               directory: Union[str, Path, None] = None) -> Dict[str, Any]:
    """Append one record to the registry; returns the pointer
    ``{"path", "seq"}`` that bench documents embed (``seq`` is the
    0-based line number of the appended record)."""
    directory = Path(directory) if directory is not None \
        else default_history_dir()
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / HISTORY_FILE
    line = json.dumps(record, sort_keys=True)
    # count lines before appending so the pointer names the new record;
    # the write itself stays a single append
    seq = 0
    if path.exists():
        with open(path, "r", encoding="utf-8") as handle:
            seq = sum(1 for _ in handle)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(line + "\n")
    return {"path": str(path), "seq": seq}


def load_history(directory: Union[str, Path, None] = None
                 ) -> List[Dict[str, Any]]:
    """Every readable record in file order (oldest first). Corrupt or
    foreign-schema lines are skipped, never fatal."""
    directory = Path(directory) if directory is not None \
        else default_history_dir()
    path = directory / HISTORY_FILE
    records: List[Dict[str, Any]] = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    continue
                if isinstance(record, dict) \
                        and record.get("schema") == HISTORY_SCHEMA:
                    records.append(record)
    except FileNotFoundError:
        pass
    return records


def series_key(record: Dict[str, Any]) -> Tuple:
    """The comparison identity of a record."""
    return (record.get("kind"), record.get("name"), record.get("engine"),
            record.get("fingerprint"))


def diff_history(records: List[Dict[str, Any]], last: Optional[int] = None,
                 threshold: float = 0.10,
                 metric: str = "cycles") -> List[Dict[str, Any]]:
    """Compare each series' newest record against its predecessor.

    ``last`` bounds how many of the newest records are candidates for
    the "new" side (None: all); the "old" side is always the closest
    earlier record of the same series. ``threshold`` is the drift
    fraction above which an increase is flagged as a regression
    (improvements are reported with ``regression: False``).
    """
    if metric not in DRIFT_METRICS:
        raise ValueError(
            f"unknown drift metric {metric!r} (have {DRIFT_METRICS})")
    candidates = records if last is None else records[-last:]
    diffs: List[Dict[str, Any]] = []
    seen_new = set()
    for new in reversed(candidates):  # newest first, one diff per series
        key = series_key(new)
        if key in seen_new:
            continue
        seen_new.add(key)
        older = [r for r in records
                 if series_key(r) == key and r is not new
                 and r.get("ts", 0) <= new.get("ts", 0)]
        if not older:
            continue
        old = older[-1]
        new_value, old_value = new.get(metric), old.get(metric)
        if not isinstance(new_value, (int, float)) \
                or not isinstance(old_value, (int, float)) or old_value <= 0:
            continue
        drift = (new_value - old_value) / old_value
        # for throughput-style metrics lower is worse; normalise so a
        # positive drift is always "got worse"
        if metric == "sim_cycles_per_host_second":
            drift = -drift
        diffs.append({
            "kind": new.get("kind"),
            "name": new.get("name"),
            "engine": new.get("engine"),
            "fingerprint": new.get("fingerprint"),
            "metric": metric,
            "old": old_value,
            "new": new_value,
            "drift": round(drift, 6),
            "regression": drift > threshold,
            "old_rev": old.get("git_rev"),
            "new_rev": new.get("git_rev"),
        })
    diffs.reverse()  # back to oldest-first, matching the listing
    return diffs
