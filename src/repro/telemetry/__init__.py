"""Host-side telemetry: pipeline tracing, host-time attribution, and the
persistent run registry.

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
* the run registry (:func:`run_record` / :func:`append_run` /
  :func:`load_history` / :func:`diff_history`) — a schema'd JSONL
  trajectory under ``results/history/`` behind ``repro history``.
"""

from repro.telemetry.history import (
    DRIFT_METRICS,
    HISTORY_DIR_ENV,
    HISTORY_FILE,
    HISTORY_RECORD_KEYS,
    HISTORY_SCHEMA,
    append_run,
    config_fingerprint,
    default_history_dir,
    diff_history,
    git_rev,
    load_history,
    run_record,
    series_key,
)
from repro.telemetry.hostprof import HostProfiler
from repro.telemetry.spans import TRACER, Span, SpanTracer, host_trace_events

__all__ = [
    "Span", "SpanTracer", "TRACER", "host_trace_events",
    "HostProfiler",
    "DRIFT_METRICS", "HISTORY_DIR_ENV", "HISTORY_FILE",
    "HISTORY_RECORD_KEYS", "HISTORY_SCHEMA",
    "append_run", "config_fingerprint", "default_history_dir",
    "diff_history", "git_rev", "load_history", "run_record", "series_key",
]
