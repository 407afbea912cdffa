"""Benchmark-local spans: the per-layer instrument of the traced run.

Spans are recorded from outside ``src/repro``, around calls into each
layer's public functions, and kept in memory until the run ends. A span
is ``[name, start, end, parent, op]`` where ``parent`` indexes the
enclosing span (-1 at the top) and ``op`` names the benchmark op that
caused it. Names are ``<layer>.<step>`` with the layer being the module
name under ``src/repro``; the metric a span feeds is its name plus ``_s``.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Optional


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tracer = self.tracer
        parent = tracer.stack[-1] if tracer.stack else -1
        self.index = len(tracer.spans)
        tracer.spans.append([self.name, perf_counter(), None, parent,
                             tracer.op])
        tracer.stack.append(self.index)
        return self

    def __exit__(self, *exc):
        self.tracer.spans[self.index][2] = perf_counter()
        self.tracer.stack.pop()
        return False


class Tracer:
    """Spans and counts of one traced pass."""

    def __init__(self):
        self.spans: List[list] = []
        self.counts: Dict[str, float] = {}
        self.stack: List[int] = []
        self.op: Optional[str] = None

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def record(self, name: str, start: float, end: float) -> None:
        """A finished leaf span (used by wrappers around layer functions
        that are called from inside ``src``, not by the harness)."""
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, start, end, parent, self.op])

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def self_times(self) -> Dict[str, float]:
        """Per span name: duration minus the part covered by child spans."""
        covered = [0.0] * len(self.spans)
        for _name, start, end, parent, _op in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: Dict[str, float] = {}
        for (name, start, end, _parent, _op), inner in zip(self.spans,
                                                           covered):
            out[name] = out.get(name, 0.0) + (end - start) - inner
        return out


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class NullTracer:
    """Tracing off: the untraced runs call the same step functions
    through this, so end-to-end numbers never carry span cost."""

    _span = _NullSpan()

    def span(self, name: str) -> _NullSpan:
        return self._span

    def record(self, name: str, start: float, end: float) -> None:
        pass

    def count(self, name: str, amount: float = 1) -> None:
        pass


NULL = NullTracer()
