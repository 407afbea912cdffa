"""Span-based tracing for the host-side toolchain pipeline.

Every toolchain phase — parse, semantic analysis, lowering, passes,
race analysis, lint (range inference nested inside it), the predictor
build, elaboration, simulation — runs inside a :meth:`SpanTracer.span`
block.
The default tracer is disabled (a span is then one flag test and a
``yield None``); CLI entry points enable it, and the recorded spans are
exported into the **same** Chrome-trace/Perfetto document as the guest
cycle timeline (see :func:`host_trace_events` and
``repro.obs.perfetto.chrome_trace(host_spans=...)``), so host seconds
and simulated cycles land in one trace side by side.

Host spans are timestamped in microseconds relative to the tracer's
first span; guest tracks use 1 us == 1 cycle. The tracks live under
separate process groups, so the shared timeline never conflates the
two units.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional


@dataclass
class Span:
    """One completed phase: a closed ``[start_ns, end_ns)`` interval."""

    name: str
    category: str
    start_ns: int
    end_ns: int
    depth: int
    thread: int
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def seconds(self) -> float:
        return self.duration_ns / 1e9


class SpanTracer:
    """Records nested wall-clock spans; safe across threads.

    Spans nest per thread (the exporter keeps one trace track per
    thread), and the tracer is append-only: a span is recorded when its
    ``with`` block exits, including on exceptions — a crashed phase
    still shows its cost.
    """

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.spans: List[Span] = []
        self.epoch_ns: Optional[int] = None
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- lifecycle --------------------------------------------------------

    def enable(self) -> "SpanTracer":
        self.enabled = True
        return self

    def disable(self) -> "SpanTracer":
        self.enabled = False
        return self

    def reset(self) -> None:
        self.spans = []
        self.epoch_ns = None

    # -- recording --------------------------------------------------------

    @contextmanager
    def span(self, name: str, category: str = "toolchain", **args):
        """Time the enclosed block. Disabled tracers yield immediately."""
        if not self.enabled:
            yield None
            return
        depth = getattr(self._local, "depth", 0)
        self._local.depth = depth + 1
        start = time.perf_counter_ns()
        if self.epoch_ns is None:
            self.epoch_ns = start
        try:
            yield self
        finally:
            end = time.perf_counter_ns()
            self._local.depth = depth
            span = Span(name=name, category=category, start_ns=start,
                        end_ns=end, depth=depth,
                        thread=threading.get_ident(), args=dict(args))
            with self._lock:
                self.spans.append(span)

    # -- views ------------------------------------------------------------

    def phase_totals(self) -> Dict[str, float]:
        """name -> total seconds, top-level spans only (depth 0), so the
        report never double-counts a phase inside its parent."""
        out: Dict[str, float] = {}
        for span in self.spans:
            if span.depth == 0:
                out[span.name] = out.get(span.name, 0.0) + span.seconds
        return out

    def as_dict(self) -> dict:
        epoch = self.epoch_ns or 0
        return {
            "spans": [
                {"name": span.name, "category": span.category,
                 "start_us": round((span.start_ns - epoch) / 1000.0, 3),
                 "duration_us": round(span.duration_ns / 1000.0, 3),
                 "depth": span.depth, "args": span.args}
                for span in sorted(self.spans, key=lambda s: s.start_ns)
            ],
            "phase_seconds": {name: round(seconds, 6) for name, seconds
                              in sorted(self.phase_totals().items())},
        }


def host_trace_events(tracer: SpanTracer, pid: int,
                      first_tid: int = 0) -> List[dict]:
    """Chrome trace-event dicts for a tracer's spans (no metadata).

    Timestamps are microseconds since the tracer's first span, one trace
    ``tid`` per host thread in first-seen order starting at
    ``first_tid``. The caller owns the ``pid`` and its process_name
    metadata.
    """
    if not tracer.spans or tracer.epoch_ns is None:
        return []
    epoch = tracer.epoch_ns
    tids: Dict[int, int] = {}
    events = []
    for span in sorted(tracer.spans, key=lambda s: s.start_ns):
        tid = tids.setdefault(span.thread, first_tid + len(tids))
        events.append({
            "ph": "X", "cat": f"host:{span.category}", "name": span.name,
            "ts": round((span.start_ns - epoch) / 1000.0, 3),
            "dur": round(span.duration_ns / 1000.0, 3),
            "pid": pid, "tid": tid,
            "args": dict(span.args, depth=span.depth),
        })
    return events


#: the process-wide pipeline tracer, threaded through every toolchain
#: phase; disabled by default (one flag test per phase)
TRACER = SpanTracer(enabled=False)
