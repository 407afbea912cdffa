"""Fixed-bucket latency histograms."""

import pytest

from repro.errors import TapasError
from repro.telemetry.metrics import (
    LATENCY_BUCKETS_S,
    Histogram,
    exponential_buckets,
)


def test_histogram_buckets_and_stats():
    hist = Histogram(buckets=(1.0, 10.0, 100.0))
    for value in (0.5, 5.0, 50.0, 500.0):
        hist.observe(value)
    payload = hist.as_dict()
    assert payload["count"] == 4
    assert payload["min"] == 0.5 and payload["max"] == 500.0
    # one observation per bucket, overflow lands in +Inf
    les = [b["le"] for b in payload["buckets"]]
    assert les == [1.0, 10.0, 100.0, "+Inf"]
    assert all(b["count"] == 1 for b in payload["buckets"])
    assert hist.quantile(0.5) <= 10.0


def test_histogram_requires_increasing_bounds():
    with pytest.raises(TapasError):
        Histogram(buckets=(1.0, 1.0))


def test_exponential_buckets_shape():
    buckets = exponential_buckets(0.001, 10.0, 4)
    assert buckets == pytest.approx((0.001, 0.01, 0.1, 1.0))
    assert len(LATENCY_BUCKETS_S) == 20
