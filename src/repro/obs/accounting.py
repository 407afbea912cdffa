"""Cycle accounting: where did every cycle of every component go?

The paper's evaluation (Fig 13-17, Table III) is a story about cycle
attribution — spawn-rate limits, tile occupancy, memory backpressure.
This module holds the passive bookkeeping: a :class:`CycleLedger` per
component (and per TXU tile) that classifies each simulated cycle as
busy / stalled-on-input / stalled-on-output / idle, and a
:class:`ChannelProbe` per channel recording occupancy histograms,
backpressure cycles and peak depth.

Both keep a *change log*, appended to only by the observer's sampler
(:meth:`repro.obs.observer.Observer.on_change`): it appends a cycle to
``log_cycles`` and the value to ``log_values`` only when the value
differs from the open run's ``current``, and the runs between log entries
are booked into the timeline when it is read or flushed (the simulator
flushes whenever ``run`` returns or raises). Counts are derived
from the runs on read, as if every cycle had been recorded on its own.

Everything here is written to, never read from, the simulation — the
observer samples component state *after* each tick, so attaching the
instrumentation cannot change cycle counts (enforced by test).
"""

from __future__ import annotations

from operator import itemgetter, lt, ne, sub
from typing import Dict, List, Optional, Tuple

from repro.sim.component import OBS_BUSY, OBS_STATES


class _ChangeLog:
    """Runs kept as a change log in two columns, the cycle of each change
    and the value it changed to, the last entry the open run. :meth:`flush`,
    and every read of the booked runs, books the closed ones through the
    subclass's ``_book``."""

    def __init__(self):
        #: the cycle of each change and the value it changed to; the last
        #: pair is the open run (flushing empties both in place)
        self.log_cycles: List[int] = []
        self.log_values: list = []
        #: the open run's value
        self.current = None

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


def _ends(starts: list, end) -> list:
    """Where each run ends: at the next one's start, the last at ``end``."""
    stops = starts[1:]
    stops.append(end)
    return stops


def _totals(keys: list, weights) -> dict:
    """Key -> the sum of its weights, the keys in order of first
    appearance."""
    totals: dict = {}
    get = totals.get
    for key, weight in zip(keys, weights):
        totals[key] = get(key, 0) + weight
    return totals


def _distinct_runs(starts: list, stops: list, values: list) -> bool:
    """Whether every run is at least a cycle long and differs from the one
    before: the runs book as they are, none empty, none merged."""
    return all(map(lt, starts, stops)) and all(map(ne, values, values[1:]))


class CycleLedger(_ChangeLog):
    """Per-component cycle attribution.

    Keeps a run-length-encoded state timeline, which the trace export reads
    and every count is summed from: the states sum to ``cycles`` by construction.
    """

    def __init__(self, name: str, group: Optional[str] = None):
        self.name = name
        #: track grouping for trace export (a tile's group is its unit)
        self.group = group or name
        super().__init__()  # values: (state, reason)
        # the booked runs, a column per field
        self._starts: List[int] = []
        self._ends: List[int] = []
        self._states: List[str] = []
        self._reasons: List[Optional[str]] = []

    @property
    def timeline(self) -> List[list]:
        """RLE state runs: [start, end_exclusive, state, reason]."""
        return list(map(list, zip(*self.columns())))

    def columns(self) -> Tuple[list, list, list, list]:
        """The booked runs' starts, ends, states and reasons (read, do not
        modify)."""
        self._book_closed()
        return self._starts, self._ends, self._states, self._reasons

    def record(self, cycle: int, state: str, reason: Optional[str] = None):
        self.record_span(cycle, 1, state, reason)

    def record_span(self, start: int, span: int, state: str,
                    reason: Optional[str] = None):
        """Book ``span`` consecutive cycles of one constant state."""
        self._book_closed()
        self._book([start], [(state, reason)], start + span)

    def _book(self, cycles: list, values: list, end):
        """Book each logged run up to the next entry (the last up to
        ``end``); a run that continues the previous one (adjacent, equal)
        extends it."""
        starts, ends, states, reasons = self._starts, self._ends, self._states, self._reasons
        stops = _ends(cycles, end)
        if (_distinct_runs(cycles, stops, values)  # what the sampler logs: in C
                and set(map(type, values)) == {tuple} and set(map(len, values)) == {2}
                and set(map(itemgetter(0), values)).issubset(OBS_STATES)):
            if ends and ends[-1] == cycles[0] and (states[-1], reasons[-1]) == values[0]:
                ends[-1] = stops[0]
                cycles, stops, values = cycles[1:], stops[1:], values[1:]
            starts += cycles
            ends += stops
            states += map(itemgetter(0), values)
            reasons += map(itemgetter(1), values)
            return
        for start, (state, reason), stop in zip(cycles, values, stops):
            if start >= stop:
                continue
            if ends and ends[-1] == start and states[-1] == state and reasons[-1] == reason:
                ends[-1] = stop
            elif state in OBS_STATES:
                starts.append(start)
                ends.append(stop)
                states.append(state)
                reasons.append(reason)
            else:
                raise ValueError(f"ledger {self.name}: unknown state {state!r}")

    # -- derived views -----------------------------------------------------

    @property
    def cycles(self) -> int:
        starts, ends, _, _ = self.columns()
        return sum(ends) - sum(starts)

    def utilization(self) -> float:
        """Fraction of the booked cycles this component was busy."""
        states = self.breakdown()
        return states[OBS_BUSY] / max(1, sum(states.values()))

    def breakdown(self) -> Dict[str, int]:
        """State -> cycles; always sums to :attr:`cycles`."""
        states = dict.fromkeys(OBS_STATES, 0)
        states.update(self._cycles_by(2))
        return states

    def stall_reasons(self) -> Dict[str, int]:
        """Stall tag -> cycles attributed to it."""
        reasons = self._cycles_by(3)
        reasons.pop(None, None)
        return reasons

    def _cycles_by(self, column: int) -> Dict[str, int]:
        """The booked runs' cycles summed by their state (column 2) or
        reason (column 3)."""
        columns = self.columns()
        return _totals(columns[column], map(sub, columns[1], columns[0]))

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

    Sampled after the channel commits, it keeps a change-compressed occupancy
    timeline (the exporter's counter track) and where its back-to-back runs end;
    the depth histogram, peak, mean and cycles spent full are read from those.
    """

    def __init__(self, channel):
        self.channel = channel
        #: the channel's item queue: its length is the occupancy
        self.queue = channel._items
        super().__init__()  # values: occupancies
        # the booked changes: where each starts, and its occupancy
        self._starts: List[int] = []
        self._occupancies: List[int] = []
        self._end = 0  # where the booked runs end (exclusive)
        self._histogram: Optional[Dict[int, int]] = None  # read from the runs

    @property
    def name(self) -> str:
        return self.channel.name

    @property
    def occupancy_timeline(self) -> List[Tuple[int, int]]:
        """(cycle, occupancy) where a booked run starts at a new occupancy
        — bounded by traffic."""
        return list(zip(*self.columns()))

    def columns(self) -> Tuple[list, list]:
        """The booked changes' cycles and occupancies (read, do not
        modify)."""
        self._book_closed()
        return self._starts, self._occupancies

    def record(self, cycle: int):
        self.record_span(cycle, 1)

    def record_span(self, start: int, span: int, occupancy: Optional[int] = None):
        """Book ``span`` cycles at one occupancy (default: the current)."""
        occ = self.channel.occupancy if occupancy is None else occupancy
        self._book_closed()
        self._book([start], [occ], start + span)

    def _book(self, cycles: list, values: list, end):
        """Book each logged run up to the next entry (the last up to ``end``)."""
        starts, occupancies = self._starts, self._occupancies
        stops = _ends(cycles, end)
        self._histogram = None
        if _distinct_runs(cycles, stops, values):  # what the sampler logs: in C
            if occupancies and occupancies[-1] == values[0]:
                cycles, values = cycles[1:], values[1:]
            starts += cycles
            occupancies += values
            self._end = end
            return
        for start, occupancy, stop in zip(cycles, values, stops):
            if start < stop:
                if not occupancies or occupancies[-1] != occupancy:
                    starts.append(start)
                    occupancies.append(occupancy)
                self._end = stop

    @property
    def histogram(self) -> Dict[int, int]:
        """Occupancy -> cycles spent at it (read, do not modify)."""
        starts, occupancies = self.columns()
        if self._histogram is None:
            self._histogram = _totals(occupancies, map(sub, _ends(starts, self._end), starts))
        return self._histogram

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
