"""Cycle accounting: where did every cycle of every component go?

The paper's evaluation (Fig 13-17, Table III) is a story about cycle
attribution — spawn-rate limits, tile occupancy, memory backpressure.
This module holds the passive bookkeeping: a :class:`CycleLedger` per
component (and per TXU tile) that classifies each simulated cycle as
busy / stalled-on-input / stalled-on-output / idle, and a
:class:`ChannelProbe` per channel recording occupancy histograms,
backpressure cycles and peak depth.

Both record *runs*, not cycles: ``sample`` says "this holds from
``cycle`` on" and only a sample that differs from the open run books it
(``record_span``); ``flush`` books the open run up to a given cycle, as
the simulator does whenever ``run`` returns or raises. Counts are derived
from the runs on read, as if every cycle had been recorded on its own.

Everything here is written to, never read from, the simulation — the
observer samples component state *after* each tick, so attaching the
instrumentation cannot change cycle counts (enforced by test).
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, List, Optional, Tuple

from repro.sim.component import OBS_BUSY, OBS_STATES


class CycleLedger:
    """Per-component cycle attribution.

    Keeps a run-length-encoded state timeline, which the trace export reads
    and every count is summed from: the states sum to ``cycles`` by construction.
    """

    def __init__(self, name: str, group: Optional[str] = None):
        self.name = name
        #: track grouping for trace export (a tile's group is its unit)
        self.group = group or name
        #: RLE state runs: [start, end_exclusive, state, reason]
        self.timeline: List[list] = []
        #: the open run: ``current`` holds since cycle ``_since``, unbooked
        self.current: Optional[Tuple[str, Optional[str]]] = None
        self._since = 0

    def sample(self, cycle: int, state: str, reason: Optional[str] = None):
        """``(state, reason)`` holds from ``cycle`` on: books the open
        run and opens a new one if this sample differs from it."""
        if (state, reason) != self.current:
            self.flush(cycle)
            self.current = (state, reason)

    def flush(self, end: int):
        """Book the open run up to (excluding) ``end``; it stays open."""
        if self.current is not None:
            self.record_span(self._since, end - self._since, *self.current)
        self._since = end

    def record(self, cycle: int, state: str, reason: Optional[str] = None):
        self.record_span(cycle, 1, state, reason)

    def record_span(self, start: int, span: int, state: str,
                    reason: Optional[str] = None):
        """Book ``span`` consecutive cycles of one constant state; a span
        that continues the previous run (adjacent, equal) extends it."""
        if span <= 0:
            return
        if state not in OBS_STATES:
            raise ValueError(f"ledger {self.name}: unknown state {state!r}")
        runs = self.timeline
        if runs and runs[-1][1] == start and runs[-1][2] == state \
                and runs[-1][3] == reason:
            runs[-1][1] = start + span
        else:
            runs.append([start, start + span, state, reason])

    # -- derived views -----------------------------------------------------

    @property
    def cycles(self) -> int:
        return sum(end - start for start, end, _, _ in self.timeline)

    @property
    def busy(self) -> int:
        return self.breakdown()[OBS_BUSY]

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
        out = {"cycles": self.cycles, "utilization": self.utilization()}
        out.update(self.breakdown())
        reasons = self.stall_reasons()
        if reasons:
            out["stall_reasons"] = reasons
        return out

    def __repr__(self):
        return (f"<CycleLedger {self.name} {self.cycles} cycles "
                f"{100 * self.utilization():.1f}% busy>")


class ChannelProbe:
    """Per-channel occupancy instrumentation.

    Sampled after the channel commits, it keeps a change-compressed occupancy
    timeline (the exporter's counter track) and where its back-to-back runs end;
    the depth histogram, peak, mean and cycles spent full are read from those.
    """

    def __init__(self, channel):
        self.channel = channel
        #: (cycle, occupancy) recorded only on change — bounded by traffic
        self.occupancy_timeline: List[Tuple[int, int]] = []
        #: the open run: occupancy ``current`` since cycle ``_since``
        self.current: Optional[int] = None
        self._since = 0
        self._end = 0  # where the booked runs end (exclusive)

    @property
    def name(self) -> str:
        return self.channel.name

    def sample(self, cycle: int):
        """The occupancy read now holds from ``cycle`` on."""
        occ = self.channel.occupancy
        if occ != self.current:
            self.flush(cycle)
            self.current = occ

    def flush(self, end: int):
        """Book the open run up to (excluding) ``end``; it stays open."""
        if self.current is not None:
            self.record_span(self._since, end - self._since, self.current)
        self._since = end

    def record(self, cycle: int):
        self.record_span(cycle, 1)

    def record_span(self, start: int, span: int, occupancy: Optional[int] = None):
        """Book ``span`` cycles at one occupancy (default: the current)."""
        if span <= 0:
            return
        occ = self.channel.occupancy if occupancy is None else occupancy
        tl = self.occupancy_timeline
        if not tl or tl[-1][1] != occ:
            tl.append((start, occ))
        self._end = start + span
        self.__dict__.pop("histogram", None)  # read anew from the runs

    @cached_property
    def histogram(self) -> Dict[int, int]:
        """Occupancy -> cycles spent at it (read, do not modify)."""
        tl, counts = self.occupancy_timeline, {}
        for (start, occ), (end, _) in zip(tl, tl[1:] + [(self._end, None)]):
            counts[occ] = counts.get(occ, 0) + end - start
        return counts

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
