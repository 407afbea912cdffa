"""The sweep runner: parallel point evaluation with failure isolation.

Evaluators are registered by name at import time (workers created with
the default ``fork`` start method inherit the registry; on spawn-based
platforms custom evaluators must live in an importable module). The
built-in ``workload`` evaluator runs a registered workload under a
config rebuilt from the point spec.

Execution contract:

* one crashing point produces a structured error record (exception
  type, message, traceback) — the rest of the sweep completes; a worker
  process that dies takes its in-flight point with it (``WorkerDied``)
  and is replaced;
* records come back in point order regardless of completion order;
* with a :class:`~repro.exp.cache.ResultCache` attached, previously
  computed points are served from disk (errors are never cached), so a
  re-run is near-instant and an interrupted sweep resumes where it
  died;
* every result value is normalised through a JSON round-trip before it
  is recorded, so a fresh record and its cached replay are
  field-identical.
"""

from __future__ import annotations

import functools
import json
import os
import time
import traceback
from bisect import bisect_left
from collections import Counter
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.errors import TapasError
from repro.exp.cache import ResultCache
from repro.exp.grid import config_from_spec

Evaluator = Callable[[Dict[str, Any]], Any]


@dataclass(frozen=True)
class _Registration:
    name: str
    fn: Evaluator
    #: spec -> the program text the point compiles; folded into the
    #: cache key so editing a workload's source invalidates its entries
    program_text: Optional[Callable[[Dict[str, Any]], str]] = None


_EVALUATORS: Dict[str, _Registration] = {}


def register_evaluator(name: str, fn: Evaluator,
                       program_text: Optional[Callable] = None,
                       replace: bool = False) -> None:
    if name in _EVALUATORS and not replace:
        raise TapasError(f"evaluator {name!r} already registered")
    _EVALUATORS[name] = _Registration(name, fn, program_text)


def get_evaluator(name: str) -> _Registration:
    if name not in _EVALUATORS:
        raise TapasError(
            f"unknown evaluator {name!r}; have {sorted(_EVALUATORS)}")
    return _EVALUATORS[name]


# -- the built-in workload evaluator --------------------------------------

def _workload_program_text(spec: Dict[str, Any]) -> str:
    from repro.workloads import REGISTRY

    return REGISTRY.get(spec["workload"]).source


def _eval_workload(spec: Dict[str, Any]) -> Dict[str, Any]:
    from repro.workloads import REGISTRY

    workload = REGISTRY.get(spec["workload"])
    config = config_from_spec(workload, spec)
    result = workload.run(config, scale=spec.get("scale", 1),
                          max_cycles=spec.get("max_cycles", 50_000_000))
    if not result.correct:
        raise TapasError(
            f"{workload.name} produced a wrong result under {spec}")
    return {
        "workload": result.name,
        "engine": config.engine,
        "tiles": spec.get("tiles"),
        "scale": spec.get("scale", 1),
        "cycles": result.cycles,
        "correct": result.correct,
        "work_items": result.work_items,
        "retval": result.retval,
        "stats": result.stats,
    }


register_evaluator("workload", _eval_workload,
                   program_text=_workload_program_text)


# -- the static-prediction evaluator ---------------------------------------

@functools.lru_cache(maxsize=None)
def _static_checker():
    """The per-process predictor: the static analysis is per *program*,
    so every (tiles, scale) point of one workload shares its model."""
    from repro.analysis.perfcheck import PerfChecker

    return PerfChecker()


def _eval_static(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Evaluate one point with the analytical performance model.

    Engine-free: no simulation runs. The record mirrors the ``workload``
    evaluator's shape (``cycles`` is the predicted count) so downstream
    tables and BENCH_*.json writers work unchanged, and adds the full
    ranked-bottleneck prediction under ``"prediction"``.
    """
    from repro.memory.backing import MainMemory
    from repro.workloads import REGISTRY

    workload = REGISTRY.get(spec["workload"])
    prepared = workload.prepare(MainMemory(), spec.get("scale", 1))
    prediction, _seconds = _static_checker().predict_point(
        workload, config_from_spec(workload, spec), prepared)
    top = prediction.top_bottleneck
    return {
        "workload": workload.name,
        "engine": "static",
        "tiles": spec.get("tiles"),
        "scale": spec.get("scale", 1),
        "cycles": prediction.cycles,
        "correct": None,
        "work_items": prepared.work_items,
        "retval": None,
        "stats": None,
        "top_bottleneck": (f"{top.component}:{top.reason}" if top else None),
        "prediction": prediction.as_dict(),
    }


register_evaluator("static", _eval_static,
                   program_text=_workload_program_text)


# -- point execution (runs in the worker process) -------------------------

def _execute_point(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Evaluate one point; never raises. The outcome dict is the
    record's core — structured errors instead of a dead sweep."""
    from repro.sim.compile import kernel_cache_info

    # monotonic start: comparable with the parent's submit timestamp on
    # the same machine, so the runner can derive pool queue-wait time
    started_mono = time.monotonic()
    start = time.perf_counter()
    loaded = kernel_cache_info()
    try:
        registration = get_evaluator(spec["evaluator"])
        value = registration.fn(spec)
        # JSON round-trip: tuples become lists, int keys become strings
        # — exactly what a cached replay of this record will contain
        value = json.loads(json.dumps(value))
        outcome: Dict[str, Any] = {"status": "ok", "value": value,
                                   "error": None}
    except Exception as exc:
        outcome = {"status": "error", "value": None,
                   "error": {"type": type(exc).__name__,
                             "message": str(exc),
                             "traceback": traceback.format_exc()}}
    outcome["seconds"] = round(time.perf_counter() - start, 6)
    outcome["worker"] = os.getpid()
    # which process compiled what depends on the schedule: telemetry
    # beside the value, never in it (replays must be field-identical)
    outcome["kernel_cache"] = {
        name: round(count - loaded[name], 6)
        for name, count in kernel_cache_info().items()}
    outcome["started_mono"] = started_mono
    return outcome


def _unrun(spec: Dict[str, Any], exc: Exception) -> Dict[str, Any]:
    """The error record of a point that fails before it is run: its
    evaluator is unknown, or the cache cannot key its spec."""
    return {"spec": spec, "cache_hit": False, "worker": None,
            "seconds": 0.0, "status": "error", "value": None,
            "error": {"type": type(exc).__name__, "message": str(exc),
                      "traceback": traceback.format_exc()}}


def choose_point(programs: Sequence[Any], mine: set, claimed: set) -> int:
    """Which pending point a freed lane runs next: ``programs`` names the
    program of each pending point in point order, ``mine`` the programs
    this lane has run (its process holds their compiled TXU steppers),
    ``claimed`` those any lane has. One of its own programs first; else
    one no lane has claimed; else it steals; each time from the largest
    backlog, ties to the earliest point."""
    backlog = Counter(programs)
    return min(range(len(programs)), key=lambda at: (
        programs[at] not in mine, programs[at] in claimed,
        -backlog[programs[at]], at))


@dataclass
class SweepResult:
    """Records in point order plus the sweep-level summary."""

    records: List[Dict[str, Any]]
    summary: Dict[str, Any]

    @property
    def values(self) -> List[Any]:
        """Ok-record values in point order (None where a point failed)."""
        return [r["value"] for r in self.records]

    @property
    def errors(self) -> List[Dict[str, Any]]:
        return [r for r in self.records if r["status"] == "error"]


@dataclass
class SweepRunner:
    """Expands nothing and decides nothing: takes point specs, returns
    records. ``jobs`` > 1 fans out over that many single-process lanes,
    each handed its next point by :func:`choose_point` when it frees up;
    a cache serves hits before any worker starts; ``progress`` (done,
    total, elapsed seconds) fires after every completed point."""

    jobs: int = 1
    cache: Optional[ResultCache] = None
    progress: Optional[Callable[[int, int, float], None]] = None

    def run(self, specs: Sequence[Dict[str, Any]]) -> SweepResult:
        start = time.perf_counter()
        total = len(specs)
        records: List[Optional[Dict[str, Any]]] = [None] * total
        pending: List[tuple] = []  # (index, spec, cache key, program)
        hits = 0
        for index, spec in enumerate(specs):
            try:
                registration = get_evaluator(spec["evaluator"])
            except Exception as exc:
                # a misnamed evaluator poisons one point, not the sweep
                records[index] = _unrun(spec, exc)
                continue
            key = None
            text = (registration.program_text(spec)
                    if registration.program_text else "")
            if self.cache is not None:
                try:
                    key = self.cache.key(registration.name, spec, text)
                except (TypeError, ValueError) as exc:
                    # a value canonical JSON cannot hold: nor can the cache
                    records[index] = _unrun(spec, exc)
                    continue
                cached = self.cache.get(key)
                if cached is not None:
                    hits += 1
                    records[index] = {"spec": spec, "cache_hit": True,
                                      "worker": None, "seconds": 0.0,
                                      "status": "ok",
                                      "value": cached["value"],
                                      "error": None}
                    continue
            pending.append((index, spec, key, (registration.name, text)))

        done = total - len(pending)
        if self.progress is not None and total:
            self.progress(done, total, time.perf_counter() - start)

        submit_mono: Dict[int, float] = {}  # point index -> submit time

        def record_outcome(index, spec, key, outcome):
            nonlocal done
            if outcome["status"] == "ok" and self.cache is not None \
                    and key is not None:
                self.cache.put(key, {"value": outcome["value"]})
            outcome = dict(outcome)
            # queue wait: submit -> worker pickup, both time.monotonic()
            # (comparable across forked processes on the same machine)
            started = outcome.pop("started_mono", None)
            submitted = submit_mono.get(index)
            wait_s = 0.0
            if started is not None and submitted is not None:
                wait_s = max(0.0, started - submitted)
            outcome["queue_wait"] = round(wait_s, 6)
            outcome["spec"] = spec
            outcome["cache_hit"] = False
            records[index] = outcome
            done += 1
            if self.progress is not None:
                self.progress(done, total, time.perf_counter() - start)

        if pending and (self.jobs <= 1 or len(pending) == 1):
            for index, spec, key, _program in pending:
                submit_mono[index] = time.monotonic()
                record_outcome(index, spec, key, _execute_point(spec))
        elif pending:
            # one single-process lane per job; ran[i] is what lane i's
            # process has run (and so holds compiled), claimed their union
            lanes = [ProcessPoolExecutor(max_workers=1)
                     for _ in range(min(self.jobs, len(pending)))]
            ran: List[set] = [set() for _ in lanes]
            claimed: set = set()
            running: Dict[Any, tuple] = {}  # future -> (lane, point)

            def dispatch(lane: int) -> None:
                point = pending.pop(choose_point(
                    [p[3] for p in pending], ran[lane], claimed))
                ran[lane].add(point[3])
                claimed.add(point[3])
                submit_mono[point[0]] = time.monotonic()
                running[lanes[lane].submit(_execute_point,
                                           point[1])] = (lane, point)

            try:
                for lane in range(len(lanes)):
                    dispatch(lane)
                while running:
                    for future in wait(running,
                                       return_when=FIRST_COMPLETED)[0]:
                        lane, (index, spec, key, _) = running.pop(future)
                        try:
                            outcome = future.result()
                        except BrokenProcessPool as exc:
                            # the point is lost, the sweep is not: the lane
                            # gets a fresh process, with nothing loaded
                            outcome = {
                                "status": "error", "value": None,
                                "worker": None, "seconds": round(
                                    time.monotonic() - submit_mono[index], 6),
                                "error": {"type": "WorkerDied",
                                          "message": str(exc),
                                          "traceback": None}}
                            lanes[lane].shutdown()
                            lanes[lane] = ProcessPoolExecutor(max_workers=1)
                            ran[lane] = set()
                        if pending:  # before the cache write: no lane waits
                            dispatch(lane)
                        record_outcome(index, spec, key, outcome)
            finally:
                for pool in lanes:
                    pool.shutdown()

        wall = time.perf_counter() - start
        errors = sum(1 for r in records if r is not None
                     and r["status"] == "error")
        telemetry = self._telemetry(records, wall)
        if self.cache is not None:
            telemetry["cache"] = self.cache.counters()
        summary = {
            "points": total,
            "jobs": self.jobs,
            "wall_seconds": round(wall, 6),
            "cache_hits": hits,
            "cache_misses": total - hits,
            "errors": errors,
            "telemetry": telemetry,
        }
        return SweepResult(records=records, summary=summary)  # type: ignore[arg-type]

    @staticmethod
    def _telemetry(records: Sequence[Optional[Dict[str, Any]]],
                   wall: float) -> Dict[str, Any]:
        """Aggregate per-worker utilization, queue-wait and point-latency
        histograms, folded into the sweep summary (and from there into
        the BENCH JSON's top-level ``telemetry`` block)."""
        computed = [record for record in records
                    if record is not None and not record.get("cache_hit")
                    and record.get("worker") is not None]
        workers: Dict[int, Dict[str, Any]] = {}
        for record in computed:
            bucket = workers.setdefault(
                record["worker"],
                {"points": 0, "busy_seconds": 0.0, "kernel_cache": Counter()})
            bucket["points"] += 1
            bucket["busy_seconds"] += record["seconds"]
            bucket["kernel_cache"].update(record.get("kernel_cache", {}))
        return {
            "workers": {
                str(pid): {
                    "points": int(stats["points"]),
                    "busy_seconds": round(stats["busy_seconds"], 6),
                    "utilization": (round(stats["busy_seconds"] / wall, 4)
                                    if wall > 0 else None),
                    # modules this worker compiled / reused, compile seconds
                    "kernel_cache": {name: round(count, 6) for name, count
                                     in sorted(stats["kernel_cache"].items())},
                }
                for pid, stats in sorted(workers.items())
            },
            "point_seconds": _latency_histogram(
                [record["seconds"] for record in computed]),
            "queue_wait_seconds": _latency_histogram(
                [record.get("queue_wait", 0.0) for record in computed]),
        }


#: host-latency bucket bounds, 100us .. ~52s in x2 steps: fixed, so the
#: telemetry blocks of different sweeps merge bucket-for-bucket
_LATENCY_BOUNDS_S = tuple(0.0001 * 2 ** i for i in range(20))


def _latency_histogram(values: Sequence[float]) -> Dict[str, Any]:
    """Summarise host latencies (seconds) over the fixed bounds: ``le``
    is a bucket's inclusive upper bound, ``"+Inf"`` catches what exceeds
    the last one, and empty buckets are left out."""
    counts = Counter(bisect_left(_LATENCY_BOUNDS_S, value) for value in values)
    total = sum(values, 0.0)
    return {
        "type": "histogram",
        "count": len(values),
        "sum": round(total, 9),
        "min": min(values, default=None),
        "max": max(values, default=None),
        "mean": round(total / len(values), 9) if values else 0.0,
        "buckets": [
            {"le": (_LATENCY_BOUNDS_S[index]
                    if index < len(_LATENCY_BOUNDS_S) else "+Inf"),
             "count": counts[index]}
            for index in sorted(counts)],
    }


def progress_printer(stream=None) -> Callable[[int, int, float], None]:
    """A simple ``done/total (elapsed, eta)`` progress line for TTYs."""
    import sys

    stream = stream or sys.stderr

    def report(done: int, total: int, elapsed: float) -> None:
        eta = (elapsed / done * (total - done)) if done else float("nan")
        end = "\n" if done == total else "\r"
        stream.write(f"sweep: {done}/{total} points "
                     f"({elapsed:.1f}s elapsed, eta {eta:.1f}s){end}")
        stream.flush()

    return report
