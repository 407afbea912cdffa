"""Span tracing: recording, nesting, Chrome-trace export."""

import os

from repro.frontend import compile_source
from repro.obs.perfetto import chrome_trace, validate_chrome_trace
from repro.telemetry.spans import SpanTracer, host_trace_events

SOURCE = """
func add_one(x: i32) -> i32 { return x + 1; }
"""


def test_disabled_tracer_records_nothing():
    tracer = SpanTracer(enabled=False)
    with tracer.span("phase") as handle:
        assert handle is None
    assert tracer.spans == []
    assert tracer.phase_totals() == {}


def test_span_records_duration_and_args():
    tracer = SpanTracer(enabled=True)
    with tracer.span("parse", category="compile", module="m"):
        pass
    (span,) = tracer.spans
    assert span.name == "parse"
    assert span.category == "compile"
    assert span.args == {"module": "m"}
    assert span.duration_ns >= 0
    assert span.depth == 0


def test_nested_spans_record_depth_and_phase_totals():
    tracer = SpanTracer(enabled=True)
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    by_name = {span.name: span for span in tracer.spans}
    assert by_name["outer"].depth == 0
    assert by_name["inner"].depth == 1
    # depth-0 only: inner time is not double counted
    assert set(tracer.phase_totals()) == {"outer"}


def test_span_recorded_even_on_exception():
    tracer = SpanTracer(enabled=True)
    try:
        with tracer.span("boom"):
            raise RuntimeError("x")
    except RuntimeError:
        pass
    assert [span.name for span in tracer.spans] == ["boom"]


def test_toolchain_phases_are_traced_through_compile():
    from repro.telemetry.spans import TRACER

    TRACER.reset()
    TRACER.enable()
    try:
        compile_source(SOURCE, "traced")
    finally:
        TRACER.disable()
    names = {span.name for span in TRACER.spans}
    assert {"frontend.parse", "frontend.sema", "frontend.lower"} <= names
    TRACER.reset()


def test_host_trace_events_shape():
    tracer = SpanTracer(enabled=True)
    with tracer.span("a"):
        with tracer.span("b"):
            pass
    events = host_trace_events(tracer, pid=99)
    assert len(events) == 2
    for event in events:
        assert event["ph"] == "X"
        assert event["pid"] == 99
        assert event["ts"] >= 0 and event["dur"] >= 0
        assert event["cat"].startswith("host:")


def test_chrome_trace_with_host_spans_validates():
    tracer = SpanTracer(enabled=True)
    with tracer.span("compile"):
        pass
    with tracer.span("simulate"):
        pass
    document = chrome_trace(host_spans=tracer)
    assert validate_chrome_trace(document) == []
    names = [e["name"] for e in document["traceEvents"] if e["ph"] == "X"]
    assert set(names) == {"compile", "simulate"}
    # a process_name metadata row labels the host track
    metas = [e for e in document["traceEvents"] if e["ph"] == "M"]
    assert any(e["args"].get("name") == "host toolchain" for e in metas)


def test_as_dict_is_json_shaped():
    tracer = SpanTracer(enabled=True)
    with tracer.span("p", category="c", k=1):
        pass
    payload = tracer.as_dict()
    assert payload["spans"][0]["name"] == "p"
    assert payload["spans"][0]["args"] == {"k": 1}
    assert "p" in payload["phase_seconds"]


def test_static_analyses_run_inside_their_own_spans(capsys):
    """``analyze``/``lint``/``predict`` each record their analysis once,
    range inference shows as its own line nested inside lint, and the
    predictor build contains none."""
    from repro.cli import main
    from repro.telemetry.spans import TRACER

    program = os.path.join(os.path.dirname(__file__), "..", "..", "examples",
                           "programs", "saxpy.cilk")

    def analysis_spans(command):
        main([command, program])
        return [s for s in TRACER.spans if s.category == "analysis"]

    try:
        (races,) = analysis_spans("analyze")
        assert races.name == "analysis.races"
        ranges, lint = analysis_spans("lint")  # recorded on exit: inner first
        assert (ranges.name, lint.name) == ("analysis.ranges", "analysis.lint")
        assert ranges.depth == lint.depth + 1
        assert lint.start_ns <= ranges.start_ns <= ranges.end_ns <= lint.end_ns
        (build,) = analysis_spans("predict")
        assert build.name == "analysis.perf_build"
    finally:
        TRACER.disable()
        TRACER.reset()
        capsys.readouterr()
