"""Cross-validation harness: static predictions vs the simulator.

:class:`PerfChecker` runs the same (workload, tiles, scale) point twice —
once through :class:`~repro.analysis.perf.PerfModel` (microseconds, no
engine) and once through the simulator with an attached
:class:`~repro.obs.Observer` — and scores the analytical model on three
axes:

* **ranking** — Spearman rank correlation between predicted and measured
  cycle counts across the whole point matrix (a model that orders design
  points correctly is useful for sweeps even when absolute numbers drift);
* **magnitude** — per-point relative cycle error and its median;
* **attribution** — whether the predicted top bottleneck and the
  simulator's top stall source fall in the same coarse class.

Exact stall tags rarely line up between a closed-form bound and a cycle
ledger (the model may say ``databox allocator-full`` where the simulator
blames the tile's ``memory`` wait — the same physical queue, seen from
its two ends), so attribution is compared on three coarse classes:
``memory``, ``spawn-throughput`` and ``serial-call``.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from repro.analysis.perf import PerfModel, Prediction
from repro.memory.backing import MainMemory
from repro.obs import Observer

#: stall-ledger reasons that blame the memory system no matter which
#: component reports them (a tile waiting on a load and the databox that
#: holds the MSHR are two views of one backlog)
_MEMORY_REASONS = frozenset({
    "memory", "allocator-full", "mem-backpressure", "cache-backpressure",
    "mshr-full", "dram-backpressure", "resp-backpressure",
})

#: component-name fragments owned by the memory system
_MEMORY_COMPONENTS = ("databox", "l1", "dram", "memnet", "cache")


def bottleneck_class(component: str, reason: str) -> str:
    """Coarse class for one (component, reason) stall attribution.

    Three buckets: ``serial-call`` (Amdahl span through call/join),
    ``memory`` (any memory-system queue or latency), and
    ``spawn-throughput`` (everything task-unit side: dispatch, execute,
    tile capacity, spawn/join network).
    """
    if reason == "call-join":
        return "serial-call"
    if reason in _MEMORY_REASONS:
        return "memory"
    lowered = component.lower()
    if any(tag in lowered for tag in _MEMORY_COMPONENTS):
        return "memory"
    return "spawn-throughput"


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Spearman rank correlation with tie-averaged ranks (no scipy)."""
    if len(xs) != len(ys) or len(xs) < 2:
        return 0.0

    def ranks(vals: Sequence[float]) -> List[float]:
        order = sorted(range(len(vals)), key=lambda i: vals[i])
        out = [0.0] * len(vals)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and \
                    vals[order[j + 1]] == vals[order[i]]:
                j += 1
            avg = (i + j) / 2.0
            for k in range(i, j + 1):
                out[order[k]] = avg
            i = j + 1
        return out

    rx, ry = ranks(xs), ranks(ys)
    n = len(xs)
    mx, my = sum(rx) / n, sum(ry) / n
    num = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    dx = sum((a - mx) ** 2 for a in rx) ** 0.5
    dy = sum((b - my) ** 2 for b in ry) ** 0.5
    if dx == 0.0 or dy == 0.0:
        return 0.0
    return num / (dx * dy)


@dataclass
class CheckRecord:
    """One cross-validated point."""

    workload: str
    tiles: int
    scale: int
    engine: str  # of the simulated side
    predicted_cycles: int
    actual_cycles: int
    rel_error: float
    predicted_bottleneck: str
    actual_bottleneck: str
    predicted_class: str
    actual_class: str
    class_match: bool
    predict_seconds: float
    sim_seconds: float

    def as_dict(self) -> Dict[str, Any]:
        return {
            "workload": self.workload, "tiles": self.tiles,
            "scale": self.scale, "engine": self.engine,
            "predicted_cycles": self.predicted_cycles,
            "actual_cycles": self.actual_cycles,
            "rel_error": round(self.rel_error, 4),
            "predicted_bottleneck": self.predicted_bottleneck,
            "actual_bottleneck": self.actual_bottleneck,
            "predicted_class": self.predicted_class,
            "actual_class": self.actual_class,
            "class_match": self.class_match,
            "predict_seconds": round(self.predict_seconds, 6),
            "sim_seconds": round(self.sim_seconds, 6),
        }


@dataclass
class CheckReport:
    """Aggregate scores over a matrix of cross-validated points."""

    records: List[CheckRecord] = field(default_factory=list)
    #: one-time model construction cost per workload, seconds
    build_seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def spearman(self) -> float:
        return spearman([r.predicted_cycles for r in self.records],
                        [r.actual_cycles for r in self.records])

    @property
    def median_abs_rel_error(self) -> float:
        if not self.records:
            return 0.0
        return statistics.median(abs(r.rel_error) for r in self.records)

    @property
    def class_match_rate(self) -> float:
        if not self.records:
            return 0.0
        hits = sum(1 for r in self.records if r.class_match)
        return hits / len(self.records)

    @property
    def median_speedup(self) -> float:
        """Median per-point (simulator seconds / predictor seconds)."""
        ratios = [r.sim_seconds / r.predict_seconds
                  for r in self.records if r.predict_seconds > 0]
        return statistics.median(ratios) if ratios else 0.0

    @property
    def aggregate_speedup(self) -> float:
        """Total simulator seconds over total predictor seconds.

        The sweep-replacement metric: how much faster the whole matrix
        evaluates through the model. Dominated by the big points, which
        is exactly where a predictor earns its keep.
        """
        sim = sum(r.sim_seconds for r in self.records)
        predict = sum(r.predict_seconds for r in self.records)
        return sim / predict if predict > 0 else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "schema": 1,
            "points": len(self.records),
            "spearman": round(self.spearman, 4),
            "median_abs_rel_error": round(self.median_abs_rel_error, 4),
            "class_match_rate": round(self.class_match_rate, 4),
            "median_speedup": round(self.median_speedup, 1),
            "aggregate_speedup": round(self.aggregate_speedup, 1),
            "build_seconds": {k: round(v, 6)
                              for k, v in sorted(self.build_seconds.items())},
            "records": [r.as_dict() for r in self.records],
        }

    def render_text(self) -> str:
        lines = [f"perfcheck: {len(self.records)} points"]
        for r in self.records:
            match = "=" if r.class_match else "!"
            lines.append(
                f"  {r.workload:<14} t{r.tiles} s{r.scale}  "
                f"pred={r.predicted_cycles:>9} act={r.actual_cycles:>9} "
                f"err={r.rel_error:>+7.1%}  "
                f"{r.predicted_class:<16}{match}={r.actual_class}")
        lines.append(
            f"  spearman={self.spearman:.4f}  "
            f"median |err|={self.median_abs_rel_error:.1%}  "
            f"class match={self.class_match_rate:.0%}  "
            f"speedup={self.aggregate_speedup:,.0f}x aggregate "
            f"({self.median_speedup:,.0f}x median)")
        return "\n".join(lines)


class PerfChecker:
    """Runs predictor and simulator on the same points and compares.

    One :class:`PerfModel` is built per workload and reused across the
    (tiles, scale) grid — mirroring how a sweep would amortise the static
    analysis over many design points.
    """

    def __init__(self):
        self._models: Dict[str, Tuple[PerfModel, float]] = {}

    def model_for(self, workload) -> PerfModel:
        cached = self._models.get(workload.name)
        if cached is not None:
            return cached[0]
        start = time.perf_counter()
        model = PerfModel(workload.fresh_module())
        elapsed = time.perf_counter() - start
        self._models[workload.name] = (model, elapsed)
        return model

    def predict_point(self, workload, config,
                      prepared) -> Tuple[Prediction, float]:
        """Static prediction of ``workload`` under ``config`` on the
        ``prepared`` inputs; returns (prediction, secs)."""
        model = self.model_for(workload)
        start = time.perf_counter()
        prediction = model.predict(entry=workload.entry, config=config,
                                   args=prepared.args,
                                   size=prepared.work_items or None)
        return prediction, time.perf_counter() - start

    def check_point(self, workload, tiles: int, scale: int,
                    max_cycles: int = 50_000_000) -> CheckRecord:
        """Predict, then simulate with an observer, then compare."""
        config = workload.default_config(ntiles=tiles)
        prediction, predict_seconds = self.predict_point(
            workload, config, workload.prepare(MainMemory(), scale))

        observer = Observer()
        start = time.perf_counter()
        result = workload.run(config, scale=scale, max_cycles=max_cycles,
                              observer=observer)
        sim_seconds = time.perf_counter() - start

        top = prediction.top_bottleneck
        predicted_tag = f"{top.component}:{top.reason}" if top else "none"
        predicted_cls = (bottleneck_class(top.component, top.reason)
                         if top else "none")
        sources = observer.stall_sources()
        if sources:
            comp, reason, _cycles = sources[0]
            actual_tag = f"{comp}:{reason}"
            actual_cls = bottleneck_class(comp, reason)
        else:
            actual_tag = actual_cls = "none"

        actual = max(1, result.cycles)
        return CheckRecord(
            workload=workload.name, tiles=tiles, scale=scale,
            engine=config.engine,
            predicted_cycles=prediction.cycles, actual_cycles=result.cycles,
            rel_error=(prediction.cycles - actual) / actual,
            predicted_bottleneck=predicted_tag, actual_bottleneck=actual_tag,
            predicted_class=predicted_cls, actual_class=actual_cls,
            class_match=(predicted_cls == actual_cls),
            predict_seconds=predict_seconds, sim_seconds=sim_seconds)

    def check_matrix(self, workloads: Iterable[Any],
                     tiles: Sequence[int] = (1, 2, 4, 8),
                     scales: Sequence[int] = (1, 2),
                     max_cycles: int = 50_000_000) -> CheckReport:
        report = CheckReport()
        for workload in workloads:
            for scale in scales:
                for ntiles in tiles:
                    report.records.append(self.check_point(
                        workload, ntiles, scale, max_cycles=max_cycles))
            _model, build = self._models[workload.name]
            report.build_seconds[workload.name] = build
        return report
