"""Fixed-bucket histograms for host-side latencies.

The sweep runner summarises per-point and queue-wait latencies with
these (the guest machine has its own cycle ledgers in ``repro.obs``).
Histograms use a **fixed bucket scheme** — :data:`LATENCY_BUCKETS_S`,
100us to ~2 minutes — so two runs of the same process (or two workers
of the same sweep) always produce mergeable documents.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.errors import TapasError


def exponential_buckets(start: float, factor: float,
                        count: int) -> Tuple[float, ...]:
    """``count`` upper bounds growing geometrically from ``start``."""
    if start <= 0 or factor <= 1 or count < 1:
        raise TapasError("exponential_buckets needs start>0, factor>1, "
                         "count>=1")
    out = []
    bound = start
    for _ in range(count):
        out.append(bound)
        bound *= factor
    return tuple(out)


#: host-latency scheme: 100us .. ~105s in x2 steps (every sweep point,
#: compile phase and simulation we time lands inside it)
LATENCY_BUCKETS_S = exponential_buckets(0.0001, 2.0, 20)


class Histogram:
    """Fixed-bucket histogram (cumulative-style bounds, plus +Inf).

    ``buckets`` are the inclusive upper bounds of each bucket; a final
    implicit overflow bucket catches everything larger. The scheme is
    fixed at creation so documents from different processes merge
    bucket-for-bucket.
    """

    __slots__ = ("buckets", "counts", "count", "sum", "min", "max")

    def __init__(self, buckets: Sequence[float] = LATENCY_BUCKETS_S):
        bounds = tuple(buckets)
        if not bounds or any(b <= a for a, b in zip(bounds, bounds[1:])):
            raise TapasError(
                "histogram bucket bounds must be strictly increasing")
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)  # [+Inf overflow last]
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        lo, hi = 0, len(self.buckets)
        while lo < hi:  # first bound >= value (bisect, no import cost)
            mid = (lo + hi) // 2
            if self.buckets[mid] < value:
                lo = mid + 1
            else:
                hi = mid
        self.counts[lo] += 1

    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> Optional[float]:
        """Upper bound of the bucket holding the q-quantile observation
        (None while empty; the overflow bucket reports the observed max)."""
        if not self.count:
            return None
        target = q * self.count
        seen = 0
        for i, n in enumerate(self.counts):
            seen += n
            if seen >= target and n:
                return (self.buckets[i] if i < len(self.buckets)
                        else self.max)
        return self.max

    def as_dict(self) -> dict:
        return {
            "type": "histogram",
            "count": self.count,
            "sum": round(self.sum, 9),
            "min": self.min,
            "max": self.max,
            "mean": round(self.mean(), 9),
            "buckets": [
                {"le": bound, "count": n}
                for bound, n in zip(self.buckets, self.counts)
                if n
            ] + ([{"le": "+Inf", "count": self.counts[-1]}]
                 if self.counts[-1] else []),
        }
