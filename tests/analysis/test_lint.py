"""Lint layer: rule registry determinism, fixture programs producing the
expected rule IDs, clean examples staying clean, the synthesis gate, and
the diagnostics JSON round-trip."""

import json
import os

import pytest

from repro.accel import (
    Accelerator,
    AcceleratorConfig,
    TaskUnitParams,
    build_accelerator,
)
from repro.accel.generator import generate
from repro.analysis import lint_design, lint_rules
from repro.analysis.lint import LINT_CODES, SCOPE_DESIGN, SCOPE_NETLIST
from repro.errors import AnalysisError
from repro.frontend import compile_source

EXAMPLES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "..", "..", "examples", "programs")


def _load(fixture):
    with open(os.path.join(EXAMPLES, fixture + ".cilk")) as handle:
        return compile_source(handle.read(), fixture)


def _lint(fixture, entry=None, config=None, netlist=False):
    module = _load(fixture)
    design = generate(module)
    entry = entry or module.functions[0].name
    accelerator = None
    if netlist:
        cfg = config or AcceleratorConfig(analysis_level="none")
        accelerator = Accelerator(design, cfg)
    return lint_design(design, entry=entry, config=config,
                       accelerator=accelerator)


# -- registry ----------------------------------------------------------------

def test_registry_is_sorted_and_complete():
    rules = lint_rules()
    codes = [r.code for r in rules]
    assert codes == sorted(codes)
    assert set(codes) == set(LINT_CODES)


def test_registry_scope_filter():
    design_rules = lint_rules(scope=SCOPE_DESIGN)
    netlist_rules = lint_rules(scope=SCOPE_NETLIST)
    assert all(r.scope == SCOPE_DESIGN for r in design_rules)
    assert all(r.scope == SCOPE_NETLIST for r in netlist_rules)
    assert {r.code for r in design_rules} | {r.code for r in netlist_rules} \
        == set(LINT_CODES)


def test_lint_output_is_deterministic():
    """Two independent runs over the same design render identically, in
    both text and JSON — rule order and diagnostic order are stable."""
    first = _lint("narrow_sum", netlist=True)
    second = _lint("narrow_sum", netlist=True)
    assert first.render_text("narrow_sum") == second.render_text("narrow_sum")
    assert first.render_json("narrow_sum") == second.render_json("narrow_sum")


# -- fixture programs --------------------------------------------------------

def test_narrow_sum_flags_narrowing_opportunities():
    report = _lint("narrow_sum")
    codes = {d.code for d in report.diagnostics}
    assert "TAP-WIDTH-002" in codes
    # narrowing opportunities are informational, never failures
    assert not report.fails("warning")


def test_deadlock_ring_is_certain_deadlock():
    report = _lint("deadlock_ring", entry="pong")
    by_code = {}
    for diag in report.diagnostics:
        by_code.setdefault(diag.code, []).append(diag)
    assert "TAP-NET-004" in by_code
    severities = {d.severity for d in by_code["TAP-NET-004"]}
    # the entry diverges (error); the other ring member is reachable from
    # it (warning)
    assert "error" in severities
    assert report.fails("error")


def test_dead_task_flags_orphan():
    report = _lint("dead_task")  # entry defaults to triple_sum
    dead = [d for d in report.diagnostics if d.code == "TAP-NET-002"]
    assert len(dead) == 1
    assert "orphan" in dead[0].message


def test_under_buffered_queue_escalates_to_warning():
    source = """
func fib(n: i32) -> i32 {
  if (n < 2) { return n; }
  var a: i32 = spawn fib(n - 1);
  var b: i32 = fib(n - 2);
  sync;
  return a + b;
}
"""
    module = compile_source(source, "fib")
    design = generate(module)
    # at the recommended depth the recursion ring is an info
    baseline = lint_design(design, entry="fib")
    ring = [d for d in baseline.diagnostics if d.code == "TAP-NET-003"]
    assert ring and all(d.severity == "info" for d in ring)
    # shrinking the queue below the recommendation is a warning
    config = AcceleratorConfig(analysis_level="none")
    config.unit_params = {
        task.name: TaskUnitParams(ntiles=1, queue_depth=4)
        for task in design.graph.tasks
    }
    shrunk = lint_design(design, entry="fib", config=config)
    ring = [d for d in shrunk.diagnostics if d.code == "TAP-NET-003"]
    assert ring and all(d.severity == "warning" for d in ring)


EXAMPLE_FIXTURES = ["double_all", "fib", "narrow_sum", "racy_sum", "saxpy"]


@pytest.mark.parametrize("fixture", EXAMPLE_FIXTURES)
def test_clean_examples_stay_clean(fixture):
    """No example program but the two lint fixtures may produce a lint
    warning or error — only informational notes — on either memory
    backend's netlist."""
    for memory_model in ("cache", "scratchpad"):
        report = _lint(fixture, netlist=True, config=AcceleratorConfig(
            analysis_level="none", memory_model=memory_model))
        noisy = [d for d in report.diagnostics if d.severity != "info"]
        assert noisy == [], [f"{d.code}: {d.message}" for d in noisy]


# -- rules no shipped program trips ------------------------------------------

def test_constant_trip_loop_flags_narrow_spawn_channel():
    """The body task of a 16-trip ``cilk_for`` receives an induction value
    in [0, 15]: 4 of that argument's 32 channel bits carry anything."""
    module = compile_source("""
func fill(a: i32*) {
  cilk_for (var i: i32 = 0; i < 16; i = i + 1) {
    a[i] = i;
  }
}
""", "fill")
    report = lint_design(generate(module), entry="fill")
    (narrow,) = [d for d in report.diagnostics if d.code == "TAP-WIDTH-001"]
    assert narrow.severity == "info"
    assert narrow.data == {"task": "fill.t0", "inferred_bits": [64, 4],
                           "declared_bits": [64, 32]}


def test_trunc_of_unbounded_value_is_possibly_lossy():
    from repro.ir import Function, IRBuilder, Module
    from repro.ir.types import I8, I32

    module = Module("narrowing")
    function = Function("low_byte", [I32], ["x"], I8)
    module.add_function(function)
    b = IRBuilder(function.add_block("entry"))
    b.ret(b.cast("trunc", function.arguments[0], I8))
    report = lint_design(generate(module), entry="low_byte")
    (lossy,) = [d for d in report.diagnostics if d.code == "TAP-WIDTH-003"]
    assert lossy.severity == "warning" and lossy.data["target_bits"] == 8
    assert report.fails("warning") and not report.fails("error")


def test_spawn_endpoint_mismatches_are_errors():
    """``Call`` and ``Store`` refuse mismatched operands when built, and
    ``verify_module`` does not look at them again, so only a pass that
    rewrites operands in place can produce these — which is exactly what
    TAP-NET-001 is there to catch, in all three forms."""
    from repro.ir import const, verify_module
    from repro.ir.instructions import Call, Store
    from repro.ir.types import I8

    module = compile_source("""
func child(x: i32, y: i32) -> i32 { return x + y; }
func parent(n: i32, wrong: f32*) -> i32 {
  var a: i32 = spawn child(n, 1);
  var b: i32 = spawn child(n, 2);
  var c: i32 = spawn child(n, 3);
  sync;
  return a + b + c;
}
""", "spawns")
    design = generate(module)
    assert not lint_design(design, entry="parent").fails("error")
    parent = module.function("parent")
    short, retyped, rerouted = [i for i in parent.instructions()
                                if isinstance(i, Call)]
    short.operands.pop()
    retyped.replace_operand(retyped.args[1], const(2, I8))
    (store,) = [i for i in rerouted.parent.instructions
                if isinstance(i, Store)]
    store.replace_operand(store.pointer, parent.arguments[1])
    verify_module(module)
    mismatches = [d for d in lint_design(generate(module),
                                         entry="parent").diagnostics
                  if d.code == "TAP-NET-001"]
    assert [d.severity for d in mismatches] == ["error"] * 3
    assert [sorted(d.data) for d in mismatches] == [
        ["callee", "expected", "sent"],
        ["arg", "callee", "expected_type", "sent_type"],
        ["callee", "pointer_type", "return_type"]]


# -- synthesis gate ----------------------------------------------------------

def test_gate_refuses_deadlock_ring():
    module = _load("deadlock_ring")
    with pytest.raises(AnalysisError, match="TAP-NET-004"):
        build_accelerator(module, AcceleratorConfig(analysis_level="warn"))


def test_gate_level_none_elaborates_anything():
    module = _load("deadlock_ring")
    accel = build_accelerator(module, AcceleratorConfig(analysis_level="none"))
    assert accel.units


def test_gate_passes_clean_program():
    module = _load("narrow_sum")
    accel = build_accelerator(module,
                              AcceleratorConfig(analysis_level="strict"))
    assert accel.units


# -- diagnostics JSON round-trip ---------------------------------------------

def test_lint_json_round_trip():
    report = _lint("deadlock_ring", entry="pong", netlist=True)
    payload = json.loads(report.render_json("deadlock_ring"))
    assert payload["module"] == "deadlock_ring"
    assert payload["summary"]["errors"] >= 1
    flat = payload["diagnostics"]
    assert len(flat) == len(report.diagnostics)
    for raw, diag in zip(flat, report.sorted()):
        assert raw["code"] == diag.code
        assert raw["severity"] == diag.severity
        assert raw["message"] == diag.message
        if diag.function:
            assert raw["function"] == diag.function
        if diag.data:
            assert raw["data"] == diag.data
