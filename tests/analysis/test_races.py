"""Static determinacy-race detection: verdicts, provenance, rendering."""

import json

import pytest

from repro.analysis import analyze_module
from repro.analysis.diagnostics import (
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    Diagnostic,
    DiagnosticReport,
)
from repro.frontend import compile_source

RACY_ACCUMULATOR = """
func racy_sum(a: i32*, out: i32*, n: i32) {
  cilk_for (var i: i32 = 0; i < n; i = i + 1) {
    out[0] = out[0] + a[i];
  }
}
"""

RACY_CONTINUATION = """
func racer(p: i32*) {
  spawn {
    p[0] = 1;
  }
  p[0] = 2;
  sync;
}
"""

CLEAN_DISJOINT = """
func double_all(a: i32*, n: i32) {
  cilk_for (var i: i32 = 0; i < n; i = i + 1) {
    a[i] = a[i] * 2;
  }
}
"""

CLEAN_SYNCED = """
func phased(p: i32*) {
  spawn {
    p[0] = 1;
  }
  sync;
  p[0] = 2;
}
"""

CLEAN_FIB = """
func fib(n: i32) -> i32 {
  if (n < 2) { return n; }
  var x: i32 = spawn fib(n - 1);
  var y: i32 = spawn fib(n - 2);
  sync;
  return x + y;
}
"""


def analyze(source, name="prog"):
    return analyze_module(compile_source(source, name))


class TestVerdicts:
    def test_racy_accumulator_two_definite_races(self):
        report = analyze(RACY_ACCUMULATOR, "racy_sum")
        errors = report.errors
        assert len(errors) == 2
        assert all(d.code == "TAP-RACE-001" for d in errors)
        flavors = {d.data["kind"] for d in errors}
        assert flavors == {"cross-instance"}

    def test_racy_accumulator_provenance(self):
        report = analyze(RACY_ACCUMULATOR, "racy_sum")
        diag = report.errors[0]
        assert diag.function == "racy_sum"
        assert diag.loc == 4                      # the out[0] line
        assert diag.data["spawn_line"] == 3       # the cilk_for line
        assert any("spawn site at line 3" in r for r in diag.related)
        assert diag.ops                            # dynamic-checker hooks

    def test_continuation_race_detected(self):
        report = analyze(RACY_CONTINUATION, "racer")
        errors = report.errors
        assert errors
        assert {d.data["kind"] for d in errors} == {"child-vs-continuation"}

    def test_clean_programs_have_no_findings(self):
        for name, source in (("double_all", CLEAN_DISJOINT),
                             ("phased", CLEAN_SYNCED),
                             ("fib", CLEAN_FIB)):
            report = analyze(source, name)
            assert report.diagnostics == [], \
                f"{name}: {report.render_text(name)}"

    def test_all_registered_workloads_error_free(self):
        """The paper's entire benchmark suite must pass the gate."""
        from repro.workloads import REGISTRY

        for workload in REGISTRY.all():
            report = analyze_module(workload.fresh_module())
            assert not report.errors, \
                f"{workload.name}: {report.render_text(workload.name)}"

    def test_mergesort_shared_tmp_warns(self):
        """mergesort's recursive halves share the global tmp buffer with
        symbolic bounds the affine model cannot split: warnings, and a
        known quantity of them."""
        from repro.workloads import REGISTRY

        report = analyze_module(REGISTRY.get("mergesort").fresh_module())
        warnings = report.warnings
        assert len(warnings) == 4
        assert all(d.code == "TAP-RACE-002" for d in warnings)
        roots = {d.data["root"] for d in warnings}
        assert "@tmp" in roots


class TestRendering:
    def test_text_golden(self):
        text = analyze(RACY_ACCUMULATOR, "racy_sum").render_text("racy_sum")
        assert "analysis of 'racy_sum': 2 finding(s)" in text
        assert "error[TAP-RACE-001]" in text
        assert "definite determinacy race on %out (argument)" in text
        assert "parallelism created by the spawn site at line 3" in text
        assert "help:" in text
        assert text.rstrip().endswith("2 error(s), 0 warning(s), 0 note(s)")

    def test_text_clean_golden(self):
        text = analyze(CLEAN_DISJOINT, "double_all").render_text("double_all")
        assert text == "analysis of 'double_all': clean (no findings)"

    def test_json_golden(self):
        payload = json.loads(
            analyze(RACY_ACCUMULATOR, "racy_sum").render_json("racy_sum"))
        assert payload["module"] == "racy_sum"
        assert payload["summary"] == {"errors": 2, "warnings": 0, "notes": 0}
        diag = payload["diagnostics"][0]
        assert diag["code"] == "TAP-RACE-001"
        assert diag["severity"] == "error"
        assert diag["function"] == "racy_sum"
        assert diag["data"]["verdict"] == "must"
        # ops/IR objects must not leak into the machine-readable form
        assert "ops" not in diag

    def test_errors_sort_before_warnings(self):
        report = DiagnosticReport()
        report.add(Diagnostic(code="TAP-MEM-001", message="note first"))
        report.add(Diagnostic(code="TAP-RACE-001", message="error last"))
        ordered = report.sorted()
        assert ordered[0].code == "TAP-RACE-001"

    def test_fails_thresholds(self):
        racy = analyze(RACY_ACCUMULATOR, "racy_sum")
        assert racy.fails(SEVERITY_ERROR)
        assert racy.fails(SEVERITY_WARNING)
        clean = analyze(CLEAN_DISJOINT, "double_all")
        assert not clean.fails(SEVERITY_WARNING)

        from repro.workloads import REGISTRY
        warned = analyze_module(REGISTRY.get("mergesort").fresh_module())
        assert warned.fails(SEVERITY_WARNING)
        assert not warned.fails(SEVERITY_ERROR)


class TestGate:
    def test_warn_level_blocks_definite_race(self):
        from repro.accel import AcceleratorConfig, build_accelerator
        from repro.errors import AnalysisError

        module = compile_source(RACY_ACCUMULATOR, "racy_sum")
        with pytest.raises(AnalysisError) as excinfo:
            build_accelerator(module, AcceleratorConfig(analysis_level="warn"))
        # the gate report merges both analysis layers; the refusal is
        # driven by exactly the two definite-race errors
        errors = [d for d in excinfo.value.diagnostics
                  if d.severity == "error"]
        assert len(errors) == 2
        assert all(d.code == "TAP-RACE-001" for d in errors)

    def test_warn_level_allows_clean_program(self):
        from repro.accel import AcceleratorConfig, build_accelerator

        module = compile_source(CLEAN_DISJOINT, "double_all")
        acc = build_accelerator(module, AcceleratorConfig(analysis_level="warn"))
        assert acc is not None

    def test_strict_level_blocks_warnings(self):
        from repro.accel import AcceleratorConfig, build_accelerator
        from repro.errors import AnalysisError
        from repro.workloads import REGISTRY

        with pytest.raises(AnalysisError):
            build_accelerator(REGISTRY.get("mergesort").fresh_module(),
                              AcceleratorConfig(analysis_level="strict"))

    def test_unknown_level_rejected(self):
        from repro.accel import AcceleratorConfig
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="analysis level"):
            AcceleratorConfig(analysis_level="pedantic")
