"""Cycle accounting: where did every cycle of every component go?

The paper's evaluation (Fig 13-17, Table III) is a story about cycle
attribution — spawn-rate limits, tile occupancy, memory backpressure.
This module holds the passive bookkeeping: a :class:`CycleLedger` per
component (and per TXU tile) that classifies each simulated cycle as
busy / stalled-on-input / stalled-on-output / idle, and a
:class:`ChannelProbe` per channel recording occupancy histograms,
backpressure cycles and peak depth.

Both are a :class:`_ChangeLog`: the observer's sampler
(:meth:`repro.obs.observer.Observer.on_change`) appends a cycle to
``log_cycles`` and the value to ``log_values`` only when the value
differs from the open run's ``current``, and one loop books the logged
runs into a store of start, end and value columns when it is read or
flushed (the simulator flushes whenever ``run`` returns or raises).
Every count is summed from those runs, as if every cycle had been
recorded on its own.

Everything here is written to, never read from, the simulation — the
observer samples component state *after* each tick, so attaching the
instrumentation cannot change cycle counts (enforced by test).
"""

from __future__ import annotations

from operator import itemgetter, sub
from typing import Dict, List, Optional, Tuple

from repro.sim.component import OBS_BUSY, OBS_STATES


class _ChangeLog:
    """Runs kept as a change log in two columns, the cycle of each change
    and the value it changed to, the last entry the open run, and booked
    into three columns: each run's start, end (exclusive) and value."""

    def __init__(self):
        #: the cycle of each change and the value it changed to; the last
        #: pair is the open run (flushing empties both in place)
        self.log_cycles: List[int] = []
        self.log_values: list = []
        #: the open run's value
        self.current = None
        self._starts: List[int] = []
        self._ends: List[int] = []
        self._values: list = []
        self._sums: Optional[dict] = None  # read from the runs

    def flush(self, end: int):
        """Book the change log up to (excluding) ``end``; the open run stays
        open from ``end``."""
        cycles, values = self.log_cycles, self.log_values
        if cycles:
            self._book(cycles, values, end)
            cycles[:] = [end]
            values[:] = values[-1:]

    def _book_closed(self):
        """Book every run of the change log but the open one."""
        if len(self.log_cycles) > 1:
            self.flush(self.log_cycles[-1])

    def columns(self) -> Tuple[list, list, list]:
        """The booked runs' starts, ends and values (read, do not modify)."""
        self._book_closed()
        return self._starts, self._ends, self._values

    def record_span(self, start: int, span: int, value):
        """Book ``span`` consecutive cycles of one constant value."""
        self._book_closed()
        self._book([start], [value], start + span)

    def _book(self, cycles: list, values: list, end):
        """Book each logged run up to the next entry (the last up to
        ``end``). An empty run is dropped — the sampler logs a cycle twice
        when a second ``Simulator.run`` samples the cycle the first one
        flushed at — and a run that continues the previous one (adjacent,
        equal) extends it."""
        self._check(values)
        self._sums = None
        starts, ends, held = self._starts, self._ends, self._values
        stops = cycles[1:]
        stops.append(end)
        for start, value, stop in zip(cycles, values, stops):
            if start >= stop:
                continue
            if ends and ends[-1] == start and held[-1] == value:
                ends[-1] = stop
            else:
                starts.append(start)
                ends.append(stop)
                held.append(value)

    def _check(self, values: list):
        """Refuse a value the log cannot hold (a probe holds any)."""

    def _totals(self) -> dict:
        """Value -> the cycles booked at it, the values in order of first
        appearance (read, do not modify)."""
        starts, ends, values = self.columns()
        if self._sums is None:
            self._sums = totals = {}
            get = totals.get
            for value, cycles in zip(values, map(sub, ends, starts)):
                totals[value] = get(value, 0) + cycles
        return self._sums


class CycleLedger(_ChangeLog):
    """Per-component cycle attribution.

    Its runs' values are ``(state, reason)``: the trace export reads them
    and every count is summed from them, so the states sum to ``cycles``
    by construction.
    """

    def __init__(self, name: str, group: Optional[str] = None):
        self.name = name
        #: track grouping for trace export (a tile's group is its unit)
        self.group = group or name
        super().__init__()

    @property
    def timeline(self) -> List[list]:
        """RLE state runs: [start, end_exclusive, state, reason]."""
        return [[start, end, *value] for start, end, value in zip(*self.columns())]

    def record(self, cycle: int, state: str, reason: Optional[str] = None):
        self.record_span(cycle, 1, state, reason)

    def record_span(self, start: int, span: int, state: str,
                    reason: Optional[str] = None):
        """Book ``span`` consecutive cycles of one constant state."""
        super().record_span(start, span, (state, reason))

    def _check(self, values: list):
        if not set(map(itemgetter(0), values)).issubset(OBS_STATES):
            state = next(state for state, _ in values if state not in OBS_STATES)
            raise ValueError(f"ledger {self.name}: unknown state {state!r}")

    # -- derived views -----------------------------------------------------

    @property
    def cycles(self) -> int:
        return sum(self._totals().values())

    def utilization(self) -> float:
        """Fraction of the booked cycles this component was busy."""
        states = self.breakdown()
        return states[OBS_BUSY] / max(1, sum(states.values()))

    def breakdown(self) -> Dict[str, int]:
        """State -> cycles; always sums to :attr:`cycles`."""
        states = dict.fromkeys(OBS_STATES, 0)
        for (state, _), cycles in self._totals().items():
            states[state] += cycles
        return states

    def stall_reasons(self) -> Dict[str, int]:
        """Stall tag -> cycles attributed to it."""
        reasons: dict = {}
        for (_, reason), cycles in self._totals().items():
            if reason is not None:
                reasons[reason] = reasons.get(reason, 0) + cycles
        return reasons

    def as_dict(self) -> dict:
        states = self.breakdown()
        cycles = sum(states.values())
        out = {"cycles": cycles, "utilization": states[OBS_BUSY] / max(1, cycles)}
        out.update(states)
        reasons = self.stall_reasons()
        if reasons:
            out["stall_reasons"] = reasons
        return out

    def __repr__(self):
        return (f"<CycleLedger {self.name} {self.cycles} cycles "
                f"{100 * self.utilization():.1f}% busy>")


class ChannelProbe(_ChangeLog):
    """Per-channel occupancy instrumentation.

    Sampled after the channel commits, its runs' values are occupancies
    (the exporter's counter track); the depth histogram, peak, mean and
    cycles spent full are read from those.
    """

    def __init__(self, channel):
        self.channel = channel
        #: the channel's item queue: its length is the occupancy
        self.queue = channel._items
        super().__init__()

    @property
    def name(self) -> str:
        return self.channel.name

    @property
    def occupancy_timeline(self) -> List[Tuple[int, int]]:
        """(cycle, occupancy) where a booked run starts — bounded by
        traffic."""
        starts, _, occupancies = self.columns()
        return list(zip(starts, occupancies))

    def record(self, cycle: int):
        self.record_span(cycle, 1)

    def record_span(self, start: int, span: int, occupancy: Optional[int] = None):
        """Book ``span`` cycles at one occupancy (default: the current)."""
        super().record_span(start, span, self.channel.occupancy
                            if occupancy is None else occupancy)

    @property
    def histogram(self) -> Dict[int, int]:
        """Occupancy -> cycles spent at it (read, do not modify)."""
        return self._totals()

    @property
    def samples(self) -> int:
        return sum(self.histogram.values())

    @property
    def peak_depth(self) -> int:
        return max(self.histogram, default=0)

    @property
    def backpressure_cycles(self) -> int:
        return sum(n for occ, n in self.histogram.items() if occ >= self.channel.capacity)

    def mean_occupancy(self) -> float:
        samples = self.samples
        return sum(d * n for d, n in self.histogram.items()) / samples if samples else 0.0

    def as_dict(self) -> dict:
        return {
            "pushed": self.channel.total_pushed,
            "popped": self.channel.total_popped,
            "capacity": self.channel.capacity,
            "peak_depth": self.peak_depth,
            "backpressure_cycles": self.backpressure_cycles,
            "mean_occupancy": round(self.mean_occupancy(), 4),
            "histogram": {str(k): v for k, v in sorted(self.histogram.items())},
        }

    def __repr__(self):
        return (f"<ChannelProbe {self.name} peak={self.peak_depth} "
                f"bp={self.backpressure_cycles}>")
