"""Machine-readable benchmark results.

Every ``benchmarks/bench_*.py`` writes, next to its ``results/*.txt``
table, a ``results/*.json`` document so the performance trajectory can
be tracked across PRs. The schema is one document per bench::

    {"bench": str, "schema": 5,
     "sweep": {"wall_seconds": float, "jobs": int, "points": int,
               "cache_hits": int, "cache_misses": int,
               "errors": int}|null,
     "telemetry": {...}|null,
     "records": [{"workload": str, "config": {...}, "cycles": int|null,
                  "utilization": {...}|null, "stalls": {...}|null,
                  "engine": {...}|null, "cache_hit": bool|null,
                  "worker": int|null, "host_seconds": float|null,
                  "sim_cycles_per_host_second": float|null,
                  "metrics": {...}}]}

``bench_record`` builds one record; non-simulation benches (resource
tables) set ``cycles`` to None and carry their numbers in ``metrics``.
Schema 2 added the ``engine`` key: host-side performance of the
simulation itself (engine name, ``host_seconds``,
``sim_cycles_per_host_second``). Schema 3 added sweep-runner
provenance: per-record ``cache_hit`` (served from the content-addressed
result cache?) and ``worker`` (pid of the sweep worker that computed
it), plus the top-level ``sweep`` wall-clock summary. Schema 4
surfaces host-time telemetry: per-record ``host_seconds`` /
``sim_cycles_per_host_second`` (lifted out of ``engine`` so they are
flat, greppable and diffable), a top-level ``telemetry`` block (the
sweep runner's worker-utilization/queue-wait/latency histograms, see
:mod:`repro.exp.runner`). Schema 5 dropped schema 4's top-level
``history`` pointer.
:func:`read_bench_json` reads schema 5 only: every committed
``results/*.json`` is at it.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

BENCH_SCHEMA_VERSION = 5

#: keys every record must carry (value may be None)
RECORD_KEYS = ("workload", "config", "cycles", "utilization", "stalls",
               "engine", "cache_hit", "worker", "host_seconds",
               "sim_cycles_per_host_second", "metrics")

#: subset of Simulator.engine_stats() carried in bench records
ENGINE_RECORD_KEYS = ("name", "host_seconds", "sim_cycles_per_host_second")

#: the sweep summary block carried at document level
SWEEP_KEYS = ("points", "jobs", "wall_seconds", "cache_hits",
              "cache_misses", "errors")


def config_summary(config) -> Dict[str, Any]:
    """JSON-safe summary of an AcceleratorConfig."""
    out = {
        "board": config.board.name,
        "default_ntiles": config.default_ntiles,
        "memory_model": config.memory_model,
        "dram_latency": config.effective_dram_latency(),
        "analysis_level": config.analysis_level,
        "engine": config.engine,
        "cache": {
            "size_bytes": config.cache.size_bytes,
            "line_bytes": config.cache.line_bytes,
            "associativity": config.cache.associativity,
            "mshr_count": config.cache.mshr_count,
            "banks": config.cache.banks,
        },
    }
    if config.unit_params:
        out["unit_params"] = {
            name: {"ntiles": p.ntiles, "queue_depth": p.queue_depth,
                   "max_inflight_per_tile": p.max_inflight_per_tile,
                   "policy": p.policy}
            for name, p in config.unit_params.items()
        }
    return out


def utilization_from_stats(stats: Dict[str, Any],
                           cycles: int) -> Dict[str, float]:
    """Per-unit tile utilization out of a RunResult stats dict."""
    out = {}
    for name, unit in stats.get("units", {}).items():
        tiles = unit.get("tiles", [])
        if tiles and cycles:
            busy = sum(t.get("busy_cycles", 0) for t in tiles)
            out[name] = round(busy / (len(tiles) * cycles), 4)
    return out


def engine_summary(source: Any) -> Optional[Dict[str, Any]]:
    """The record ``engine`` key from a stats dict or engine_stats dict.

    Accepts a ``RunResult.stats`` dict (engine stats nested under
    ``"engine"``) or a ``Simulator.engine_stats()`` dict directly.
    """
    if source is None:
        return None
    engine = source.get("engine", source)
    if not isinstance(engine, dict) or "name" not in engine:
        return None
    return {key: engine.get(key) for key in ENGINE_RECORD_KEYS}


def bench_record(workload: str, config: Any = None,
                 cycles: Optional[int] = None,
                 utilization: Optional[dict] = None,
                 stalls: Optional[dict] = None,
                 stats: Optional[dict] = None,
                 engine: Optional[dict] = None,
                 cache_hit: Optional[bool] = None,
                 worker: Optional[int] = None,
                 **metrics) -> Dict[str, Any]:
    """One benchmark data point in the BENCH_*.json schema.

    ``cache_hit``/``worker`` are sweep-runner provenance: None for
    benches that do not run through the SweepRunner. The schema-4 flat
    ``host_seconds``/``sim_cycles_per_host_second`` keys are derived
    from the engine summary (None when no engine stats are available).
    """
    if not isinstance(config, (dict, type(None))):
        config = config_summary(config)
    if utilization is None and stats is not None and cycles:
        utilization = utilization_from_stats(stats, cycles) or None
    if engine is None and stats is not None:
        engine = engine_summary(stats)
    else:
        engine = engine_summary(engine)
    host_seconds = engine.get("host_seconds") if engine else None
    cycles_per_s = (engine.get("sim_cycles_per_host_second")
                    if engine else None)
    return {
        "workload": workload,
        "config": config,
        "cycles": cycles,
        "utilization": utilization,
        "stalls": stalls,
        "engine": engine,
        "cache_hit": cache_hit,
        "worker": worker,
        "host_seconds": host_seconds,
        "sim_cycles_per_host_second": cycles_per_s,
        "metrics": metrics,
    }


def sweep_record(point_record: Dict[str, Any], workload: str,
                 config: Any = None, **metrics) -> Dict[str, Any]:
    """A bench record carrying a SweepRunner point record's provenance.

    ``point_record`` is one entry of
    :attr:`repro.exp.SweepResult.records`; its value's cycles/stats feed
    the architectural fields, its ``cache_hit``/``worker`` feed the
    schema-3 provenance keys. Failed points produce a record with None
    cycles and the structured error in ``metrics``.
    """
    value = point_record.get("value") or {}
    if point_record.get("queue_wait") is not None:
        metrics.setdefault("queue_wait", point_record["queue_wait"])
    return bench_record(
        workload,
        config=config,
        cycles=value.get("cycles"),
        stats=value.get("stats"),
        cache_hit=point_record.get("cache_hit"),
        worker=point_record.get("worker"),
        **({"error": point_record["error"]}
           if point_record.get("status") == "error" else {}),
        **metrics)


def bench_document(bench: str, records: List[dict],
                   sweep: Optional[Dict[str, Any]] = None,
                   telemetry: Optional[Dict[str, Any]] = None
                   ) -> Dict[str, Any]:
    for record in records:
        missing = [k for k in RECORD_KEYS if k not in record]
        if missing:
            raise ValueError(f"bench {bench}: record missing {missing}")
    if sweep is not None:
        missing = [k for k in SWEEP_KEYS if k not in sweep]
        if missing:
            raise ValueError(f"bench {bench}: sweep summary missing {missing}")
        # the sweep runner's telemetry block rides at document level, not
        # inside the strictly-keyed sweep summary
        if telemetry is None:
            telemetry = sweep.get("telemetry")
        sweep = {key: sweep[key] for key in SWEEP_KEYS}
    return {"bench": bench, "schema": BENCH_SCHEMA_VERSION,
            "sweep": sweep, "telemetry": telemetry, "records": records}


def read_bench_json(path: str) -> Dict[str, Any]:
    """Load a results document; any schema but the current one is
    rejected."""
    with open(path) as handle:
        document = json.load(handle)
    schema = document.get("schema")
    if schema != BENCH_SCHEMA_VERSION:
        raise ValueError(
            f"{path}: unsupported bench schema {schema!r} "
            f"(readable: {BENCH_SCHEMA_VERSION})")
    return document


def write_bench_json(path: str, bench: str, records: List[dict],
                     sweep: Optional[Dict[str, Any]] = None,
                     telemetry: Optional[Dict[str, Any]] = None) -> dict:
    document = bench_document(bench, records, sweep=sweep,
                              telemetry=telemetry)
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=False)
        handle.write("\n")
    return document
