"""Host-side telemetry: pipeline tracing, host-time attribution, and the
performance trajectory.

The guest machine became observable in ``repro.obs`` (cycle ledgers,
stall attribution, Perfetto traces); this package does the same for the
*host-side* toolchain:

* :class:`SpanTracer` / :data:`TRACER` — span-based tracing over every
  toolchain phase (parse → IR build → passes → elaboration →
  simulation), exported as host-thread tracks into the same
  Chrome-trace document as the guest cycle timeline,
* :class:`HostProfiler` — per-component-class ``perf_counter_ns``
  attribution inside the simulation engines ("where do host seconds
  go"), bit-identical sim cycles on or off,
* :func:`ledger_history` — the committed end-to-end ledger
  (``results/e2e/``) as parent/change ratios against the
  ``BENCHMARK.json`` bounds, behind ``repro history``.
"""

from repro.telemetry.history import ledger_history, load_ledger_document
from repro.telemetry.hostprof import HostProfiler
from repro.telemetry.spans import TRACER, Span, SpanTracer, host_trace_events

__all__ = [
    "Span", "SpanTracer", "TRACER", "host_trace_events",
    "HostProfiler",
    "ledger_history", "load_ledger_document",
]
