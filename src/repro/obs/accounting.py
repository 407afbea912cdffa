"""Cycle accounting: where did every cycle of every component go?

The paper's evaluation (Fig 13-17, Table III) is a story about cycle
attribution — spawn-rate limits, tile occupancy, memory backpressure.
This module holds the passive bookkeeping: a :class:`CycleLedger` per
component (and per TXU tile) that classifies each simulated cycle as
busy / stalled-on-input / stalled-on-output / idle, and a
:class:`ChannelProbe` per channel recording occupancy histograms,
backpressure cycles and peak depth.

Both keep a *change log*: ``sample`` appends ``(cycle, value)`` only when
the value differs from the open run's, and the runs between log entries
are booked into the timeline when it is read or flushed (the simulator
flushes whenever ``run`` returns or raises). Counts are derived
from the runs on read, as if every cycle had been recorded on its own.

Everything here is written to, never read from, the simulation — the
observer samples component state *after* each tick, so attaching the
instrumentation cannot change cycle counts (enforced by test).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.sim.component import OBS_BUSY, OBS_STATES


class _ChangeLog:
    """Runs kept as a change log: ``(cycle, value)`` at each change, the
    last entry the open run. :meth:`flush`, and every read of the booked
    runs, books the closed ones through the subclass's ``_book``."""

    def __init__(self):
        #: ``(cycle, value)`` at each change; the last is the open run
        self.log: List[tuple] = []
        #: the open run's value
        self.current = None

    def flush(self, end: int):
        """Book the change log up to (excluding) ``end``; the open run stays
        open from ``end``."""
        if self.log:
            self._book(self.log, end)
            self.log[:] = [(end, self.log[-1][1])]

    def _book_closed(self):
        """Book every run of the change log but the open one."""
        if len(self.log) > 1:
            self.flush(self.log[-1][0])


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
        self._runs: List[list] = []

    @property
    def timeline(self) -> List[list]:
        """RLE state runs: [start, end_exclusive, state, reason]."""
        self._book_closed()
        return self._runs

    def sample(self, cycle: int, state: str, reason: Optional[str] = None):
        """``(state, reason)`` holds from ``cycle`` on: logged if it differs
        from the open run."""
        now = (state, reason)
        if now != self.current:
            self.current = now
            self.log.append((cycle, now))

    def record(self, cycle: int, state: str, reason: Optional[str] = None):
        self.record_span(cycle, 1, state, reason)

    def record_span(self, start: int, span: int, state: str,
                    reason: Optional[str] = None):
        """Book ``span`` consecutive cycles of one constant state."""
        self._book_closed()
        self._book([(start, (state, reason))], start + span)

    def _book(self, log: list, end):
        """Book each logged run up to the next entry (the last up to
        ``end``); a run that continues the previous one (adjacent, equal)
        extends it."""
        runs = self._runs
        last = runs[-1] if runs else [None] * 4
        for (start, (state, reason)), (stop, _) in zip(log, [*log[1:], (end, None)]):
            if start >= stop:
                continue
            if last[1] == start and last[2] == state and last[3] == reason:
                last[1] = stop
            elif state in OBS_STATES:
                last = [start, stop, state, reason]
                runs.append(last)
            else:
                raise ValueError(f"ledger {self.name}: unknown state {state!r}")

    # -- derived views -----------------------------------------------------

    @property
    def cycles(self) -> int:
        return sum(end - start for start, end, _, _ in self.timeline)

    def utilization(self) -> float:
        """Fraction of the booked cycles this component was busy."""
        states = self.breakdown()
        return states[OBS_BUSY] / max(1, sum(states.values()))

    def breakdown(self) -> Dict[str, int]:
        """State -> cycles; always sums to :attr:`cycles`."""
        states = dict.fromkeys(OBS_STATES, 0)
        for start, end, state, _ in self.timeline:
            states[state] += end - start
        return states

    def stall_reasons(self) -> Dict[str, int]:
        """Stall tag -> cycles attributed to it."""
        reasons: Dict[str, int] = {}
        for start, end, _, reason in self.timeline:
            if reason is not None:
                reasons[reason] = reasons.get(reason, 0) + end - start
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

    Sampled after the channel commits, it keeps a change-compressed occupancy
    timeline (the exporter's counter track) and where its back-to-back runs end;
    the depth histogram, peak, mean and cycles spent full are read from those.
    """

    def __init__(self, channel):
        self.channel = channel
        super().__init__()  # values: occupancies
        self._changes: List[Tuple[int, int]] = []
        self._end = 0  # where the booked runs end (exclusive)
        self._histogram: Optional[Dict[int, int]] = None  # read from the runs

    @property
    def name(self) -> str:
        return self.channel.name

    @property
    def occupancy_timeline(self) -> List[Tuple[int, int]]:
        """(cycle, occupancy) where a booked run starts at a new occupancy
        — bounded by traffic."""
        self._book_closed()
        return self._changes

    def sample(self, cycle: int):
        """The occupancy read now holds from ``cycle`` on."""
        occ = self.channel.occupancy
        if occ != self.current:
            self.current = occ
            self.log.append((cycle, occ))

    def record(self, cycle: int):
        self.record_span(cycle, 1)

    def record_span(self, start: int, span: int, occupancy: Optional[int] = None):
        """Book ``span`` cycles at one occupancy (default: the current)."""
        occ = self.channel.occupancy if occupancy is None else occupancy
        self._book_closed()
        self._book([(start, occ)], start + span)

    def _book(self, log: list, end):
        """Book each logged run up to the next entry (the last up to ``end``)."""
        changes = self._changes
        for entry, (stop, _) in zip(log, [*log[1:], (end, None)]):
            if entry[0] < stop:
                if not changes or changes[-1][1] != entry[1]:
                    changes.append(entry)
                self._end = stop
        self._histogram = None

    @property
    def histogram(self) -> Dict[int, int]:
        """Occupancy -> cycles spent at it (read, do not modify)."""
        tl = self.occupancy_timeline
        if self._histogram is None:
            counts = self._histogram = {}
            for (start, occ), (end, _) in zip(tl, tl[1:] + [(self._end, None)]):
                counts[occ] = counts.get(occ, 0) + end - start
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
