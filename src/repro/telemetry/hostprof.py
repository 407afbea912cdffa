"""Host-time attribution for the simulator: where do host seconds go?

The guest-side ledgers (``repro.obs``) explain simulated cycles; this
profiler explains the *host* wall-clock the simulator itself burns, on
the engine that ran. Installed, it makes the compiled engine generate a
*profiled* shell (:mod:`repro.sim.compile`): a separate kernel text that
reads ``perf_counter_ns`` after every component section, around every
tile's instance-loop call and after the commit, the observer hand-over
and the idle/skip tail, and hands the nanoseconds of each row to
:meth:`HostProfiler.add` when the run ends. Rows are component classes
(``TaskUnit`` excludes its tiles' instance loops, which are one
``TXUTile[<task>]`` row per task); the phases are ``kernel.load`` (the
engine's ``prepare_kernel`` call: generation and ``compile`` when the
kernel is not cached), ``channels.commit``, ``observer`` and
``engine.schedule``, the residual of the wall time.
Wall time is the engine's own ``host_seconds``. The dense and event
engines, and a compiled run that fell back to dense, report wall time
only. Uninstalled, nothing is generated: the plain kernel text is
byte-identical and simulated cycles are the same either way.
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import SimulationError

#: the engine phases; every other kernel row is a component class
PHASES = ("kernel.load", "channels.commit", "observer", "engine.schedule")


class HostProfiler:
    """Per-component-class host-time accumulator for one Simulator."""

    def __init__(self):
        self.sim = None
        #: kernel row (class, instance loop or phase) -> nanoseconds
        self._rows: Dict[str, int] = {}
        self._since = 0.0   # the simulator's host_seconds at install
        self._until = None  # ... and at uninstall

    def install(self, sim) -> "HostProfiler":
        """Hand the profiler to ``sim``: its next compiled run generates
        the profiled shell. Pure instrumentation: simulation results are
        bit-identical with the profiler on."""
        if self.sim is not None:
            raise SimulationError("host profiler is already installed")
        self.sim = sim
        self._since = sim.host_seconds
        sim.host_profile = self
        return self

    def uninstall(self) -> None:
        """Detach: the simulator's next run is unprofiled, and the wall
        time stops at the runs made so far."""
        if self.sim is not None and self.sim.host_profile is self:
            self.sim.host_profile = None
            self._until = self.sim.host_seconds

    def add(self, rows, times) -> None:
        """Called by the profiled kernel as its run ends: ``times[i]``
        nanoseconds were spent in row ``rows[i]``."""
        for row, ns in zip(rows, times):
            self._rows[row] = self._rows.get(row, 0) + ns

    # -- derived numbers ---------------------------------------------------

    @property
    def wall_ns(self) -> int:
        """Simulator wall-clock of the runs made while installed."""
        if self.sim is None:
            return 0
        until = self.sim.host_seconds if self._until is None else self._until
        return round((until - self._since) * 1e9)

    def measured_fraction(self) -> float:
        """Share of the wall-clock read off the kernel's clock (<= 1.0):
        0.0 on an engine that reports wall time only."""
        wall = self.wall_ns
        return min(1.0, sum(self._rows.values()) / wall) if wall else 0.0

    def ranked_classes(self) -> List[dict]:
        """Component classes and instance loops by descending host cost."""
        rows = [{"class": name, "seconds": ns / 1e9}
                for name, ns in self._rows.items() if name not in PHASES]
        rows.sort(key=lambda row: (-row["seconds"], row["class"]))
        return rows

    def phases(self) -> Dict[str, float]:
        """Engine phases (seconds): the kernel load, commit and observer
        hand-over as timed, ``engine.schedule`` as the rest of the
        wall-clock."""
        phases = {name: self._rows.get(name, 0) / 1e9 for name in PHASES}
        phases["engine.schedule"] = max(0, self.wall_ns - self._attributed_ns()) / 1e9
        return phases

    def _attributed_ns(self) -> int:
        """Kernel time outside the ``engine.schedule`` residual."""
        return sum(ns for name, ns in self._rows.items()
                   if name != "engine.schedule")

    def as_dict(self) -> dict:
        sim = self.sim
        return {
            "schema": 3,
            # the engine the profile was taken on, not the one asked for
            "engine": sim.executed_engine if sim is not None else None,
            "compiled_fallback":
                sim.compiled_fallback if sim is not None else None,
            "wall_seconds": round(self.wall_ns / 1e9, 6),
            "measured_fraction": round(self.measured_fraction(), 4),
            "classes": [{"class": row["class"],
                         "seconds": round(row["seconds"], 6)}
                        for row in self.ranked_classes()],
            "phases": {name: round(seconds, 6)
                       for name, seconds in self.phases().items()},
        }
