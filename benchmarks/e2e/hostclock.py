"""A reference-work clock for a host whose speed drifts.

On a shared 2-vCPU sandbox the same pure-Python work takes 1.0x to 1.7x
as long from one ten-second stretch to the next (a neighbour on the
sibling hardware thread), which no median over a 12-second run can
absorb. The end-to-end time metrics are therefore reported in *reference
seconds*: between ops the harness times a fixed burst of work — a loop
of list, dict and integer bytecodes, then three reads of a 26 KB JSON
file through ``open`` + ``json.load``; nothing from ``src/repro`` — and
an op's measured seconds are scaled by ``NOMINAL_BURST_S`` over the
burst time observed just before and after it. A number in reference
seconds reads as "seconds on a host that runs the burst in 2 ms", is
comparable between runs, commits and load conditions on one machine, and
moves only when the op itself gets cheaper or dearer. Raw seconds are
kept beside it in every result file. Measured on this host over 240 s of
alternating load, this cut the spread of 12-second medians from 20-22%
to 5-6% (README.md, "Steadiness"). The file reads are in the burst because
system calls slow down more than bytecode when the sibling hardware
thread is busy: with a CPU hog switched on and off every 15 s, the
spread of cache-replay ops fell from 14.0% (bytecode only) to 9.9% and
that of static-flow ops from 4.2% to 3.3%.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from time import perf_counter
from typing import List

#: the burst takes this long on this host when its neighbour is quiet
NOMINAL_BURST_S = 0.002
#: ops shorter than this share one pair of samples
RESAMPLE_AFTER_S = 0.1
#: a sample older than this is not trusted as an op's "before"
STALE_AFTER_S = 0.02
BURSTS_PER_SAMPLE = 3


#: what the burst reads back: the size and shape of a sweep-cache entry
DOCUMENT = json.dumps({f"k{i}": {"a": i, "b": [i, i + 1, i + 2],
                                 "c": "x" * 20, "d": {"e": i * 1.5}}
                       for i in range(300)})


def burst(path: Path) -> float:
    """Seconds for a fixed stretch of list/dict/int bytecodes followed
    by three reads of the JSON file at ``path``."""
    data = list(range(64))
    table = {i: i * 3 for i in range(64)}
    acc = 0
    start = perf_counter()
    for i in range(15000):
        j = i & 63
        acc += data[j] + table[j]
        data[j] = acc & 255
    for _ in range(3):
        with open(path, encoding="utf-8") as handle:
            json.load(handle)
    return perf_counter() - start


def sample(path: Path) -> float:
    return statistics.median(burst(path) for _ in range(BURSTS_PER_SAMPLE))


class HostClock:
    """Turns measured op latencies into reference seconds; ``scratch``
    is a directory for the file the burst reads."""

    def __init__(self, scratch: Path):
        self._path = scratch / "hostclock.json"
        self._path.write_text(DOCUMENT, encoding="utf-8")
        self._before = sample(self._path)
        self._sampled_at = perf_counter()
        self._pending: List[float] = []
        self._scaled: List[float] = []

    def begin(self) -> None:
        """Call before the first op of a pass."""
        if perf_counter() - self._sampled_at > STALE_AFTER_S:
            self._before = sample(self._path)
            self._sampled_at = perf_counter()

    def add(self, seconds: float) -> None:
        """Call right after an op with its measured latency."""
        self._pending.append(seconds)
        if perf_counter() - self._sampled_at >= RESAMPLE_AFTER_S:
            self._settle()

    def _settle(self) -> None:
        after = sample(self._path)
        scale = NOMINAL_BURST_S / ((self._before + after) / 2.0)
        self._scaled += [seconds * scale for seconds in self._pending]
        self._pending.clear()
        self._before = after
        self._sampled_at = perf_counter()

    def drain(self) -> List[float]:
        """Reference seconds of every op added since the last drain."""
        if self._pending:
            self._settle()
        scaled, self._scaled = self._scaled, []
        return scaled
