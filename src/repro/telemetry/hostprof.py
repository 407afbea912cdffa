"""Host-time attribution for the simulator: where do host seconds go?

The guest-side ledgers (``repro.obs``) explain simulated cycles; this
profiler explains the *host* wall-clock the simulator itself burns —
the direct targeting data for the compile-the-simulator work on the
roadmap. Enabled, it wraps every component's ``tick`` with a
``perf_counter_ns`` accumulator bucketed by component class, and the
engine separately times channel commits, observer sampling and its run
loop. Disabled (the default), the engine pays exactly one ``is None``
test per cycle and simulated cycle counts are bit-identical — enforced
by ``tests/telemetry/test_hostprof.py`` on both engines.

Attribution is exhaustive: wall-clock not inside a component tick, a
channel commit or the observer is reported as the named
``engine.schedule`` phase (the wake-cycle scan, ``done()`` polling), so
the ranked report always accounts for 100% of the run loop while the
*measured* fraction stays an honest machinery check.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from repro.errors import SimulationError

_ns = time.perf_counter_ns


class HostProfiler:
    """Per-component-class host-time accumulator for one Simulator."""

    def __init__(self):
        self.sim = None
        #: class name -> [total ns, tick calls]; lists keep the wrapper
        #: hot path at two indexed adds, no attribute traffic
        self._classes: Dict[str, List[int]] = {}
        self.commit_ns = 0        # channel commit loops (engine-timed)
        self.observer_ns = 0      # observer sampling (wrapped below)
        self.wall_ns = 0          # Simulator.run loop while installed
        self._saved_ticks: List[tuple] = []
        self._saved_observer: Optional[tuple] = None  # (observer, hooks)

    # -- install/uninstall -------------------------------------------------

    def install(self, sim) -> "HostProfiler":
        """Wrap every registered component (and the attached observer, if
        any) and hand the profiler to ``sim``. Pure instrumentation: the
        wrappers time the original methods and change nothing else, so
        simulation results are bit-identical with the profiler on."""
        if self.sim is not None:
            raise SimulationError("host profiler is already installed")
        self.sim = sim
        for component in sim.components:
            self._wrap_component(component)
        observer = sim.observer
        if observer is not None:
            self._wrap_observer(observer)
        sim.host_profile = self
        return self

    def uninstall(self) -> None:
        """Restore every wrapped method and detach from the simulator."""
        for component, _ in self._saved_ticks:
            component.__dict__.pop("tick", None)
        self._saved_ticks = []
        if self._saved_observer is not None:
            observer, hooks = self._saved_observer
            for hook in hooks:
                observer.__dict__.pop(hook, None)
            self._saved_observer = None
        if self.sim is not None:
            self.sim.host_profile = None
            self.sim = None

    def _bucket(self, class_name: str) -> List[int]:
        bucket = self._classes.get(class_name)
        if bucket is None:
            bucket = self._classes[class_name] = [0, 0]
        return bucket

    def _wrap_component(self, component) -> None:
        inner = component.tick  # the class method, bound — before shadowing
        bucket = self._bucket(type(component).__name__)

        def timed_tick(cycle, _inner=inner, _bucket=bucket):
            t0 = _ns()
            _inner(cycle)
            _bucket[0] += _ns() - t0
            _bucket[1] += 1

        self._saved_ticks.append((component, inner))
        component.tick = timed_tick

    def _wrap_observer(self, observer) -> None:
        def timed(inner):
            def timed_hook(*args):
                t0 = _ns()
                inner(*args)
                self.observer_ns += _ns() - t0
            return timed_hook

        # a change-driven observer's on_cycle is on_change over everything
        # (see Simulator.attach_observer), so timing on_change covers both
        hooks = (("on_change", "flush") if hasattr(observer, "on_change")
                 else ("on_cycle",))
        for hook in hooks:
            setattr(observer, hook, timed(getattr(observer, hook)))
        self._saved_observer = (observer, hooks)

    # -- derived numbers ---------------------------------------------------

    @property
    def component_ns(self) -> int:
        return sum(bucket[0] for bucket in self._classes.values())

    @property
    def measured_ns(self) -> int:
        """Host time directly measured inside a named activity."""
        return self.component_ns + self.commit_ns + self.observer_ns

    @property
    def schedule_ns(self) -> int:
        """Run-loop residual: the wake-cycle scan, ``done()`` checks,
        accounting — everything between the timed activities."""
        return max(0, self.wall_ns - self.measured_ns)

    def measured_fraction(self) -> float:
        """Directly-timed share of the run-loop wall-clock (<= 1.0)."""
        if not self.wall_ns:
            return 0.0
        return min(1.0, self.measured_ns / self.wall_ns)

    def coverage(self) -> float:
        """Share of run-loop wall-clock attributed to *named* classes
        and phases. ``engine.schedule`` names the measured residual, so
        a healthy profile covers ~1.0; a broken install shows up as a
        zero measured fraction instead."""
        if not self.wall_ns:
            return 0.0
        return min(1.0, (self.measured_ns + self.schedule_ns) / self.wall_ns)

    def ranked_classes(self) -> List[dict]:
        """Component classes by descending host cost."""
        rows = []
        for name, (total_ns, calls) in self._classes.items():
            rows.append({
                "class": name,
                "seconds": total_ns / 1e9,
                "ticks": calls,
                "ns_per_tick": round(total_ns / calls) if calls else 0,
            })
        rows.sort(key=lambda row: (-row["seconds"], row["class"]))
        return rows

    def phases(self) -> Dict[str, float]:
        """Named engine phases (seconds) outside the component ticks."""
        return {
            "channels.commit": self.commit_ns / 1e9,
            "observer": self.observer_ns / 1e9,
            "engine.schedule": self.schedule_ns / 1e9,
        }

    def as_dict(self) -> dict:
        sim = self.sim
        return {
            "schema": 1,
            # the engine the profile was taken on, not the one asked for
            "engine": sim.executed_engine if sim is not None else None,
            "compiled_fallback":
                sim.compiled_fallback if sim is not None else None,
            "wall_seconds": round(self.wall_ns / 1e9, 6),
            "measured_fraction": round(self.measured_fraction(), 4),
            "coverage": round(self.coverage(), 4),
            "classes": [
                {"class": row["class"],
                 "seconds": round(row["seconds"], 6),
                 "ticks": row["ticks"],
                 "ns_per_tick": row["ns_per_tick"]}
                for row in self.ranked_classes()
            ],
            "phases": {name: round(seconds, 6)
                       for name, seconds in self.phases().items()},
        }
