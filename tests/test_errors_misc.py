"""Tests for the error hierarchy, tracing and small report helpers."""


from repro.errors import (
    DeadlockError,
    FrontendError,
    IRError,
    LexError,
    ParseError,
    SemanticError,
    SimulationError,
    TapasError,
    VerificationError,
)
from repro.reports import bar_chart
from repro.sim import NULL_TRACE, Trace, TraceEvent


class TestErrorHierarchy:
    def test_everything_is_a_tapas_error(self):
        for cls in (IRError, FrontendError, LexError, ParseError,
                    SemanticError, SimulationError, DeadlockError,
                    VerificationError):
            assert issubclass(cls, TapasError)

    def test_frontend_errors_carry_position(self):
        error = ParseError("bad token", line=4, column=7)
        assert "line 4:7" in str(error)
        assert error.line == 4 and error.column == 7

    def test_frontend_error_without_position(self):
        assert str(SemanticError("oops")) == "oops"

    def test_verification_error_aggregates(self):
        error = VerificationError(["a broke", "b broke"])
        assert error.problems == ["a broke", "b broke"]
        assert "a broke; b broke" in str(error)

    def test_deadlock_error_records_cycle(self):
        error = DeadlockError(1234, "stuck channels")
        assert error.cycle == 1234
        assert "1234" in str(error) and "stuck channels" in str(error)


class TestTrace:
    def test_disabled_trace_records_nothing(self):
        trace = Trace(enabled=False)
        trace.emit(1, "x", "k", "d")
        assert len(trace) == 0
        NULL_TRACE.emit(1, "x", "k")
        assert len(NULL_TRACE) == 0

    def test_render_truncates(self):
        trace = Trace(enabled=True)
        for i in range(10):
            trace.emit(i, "src", "kind", f"event{i}")
        text = trace.render(limit=3)
        assert "event0" in text and "event2" in text
        assert "7 more events" in text

    def test_event_format(self):
        event = TraceEvent(5, "unit", "spawn", "detail")
        assert "unit" in str(event) and "spawn" in str(event)


class TestBarChart:
    def test_bars_scale_to_peak(self):
        text = bar_chart("T", ["a", "bb"], [1.0, 2.0], width=10)
        lines = text.splitlines()
        assert lines[0] == "T"
        assert lines[2].count("#") == 10       # the peak fills the width
        assert 0 < lines[1].count("#") <= 5

    def test_empty_values(self):
        assert bar_chart("T", [], []) == "T"

    def test_zero_peak(self):
        text = bar_chart("T", ["a"], [0.0])
        assert "0.00" in text
