"""Facts with one producer keep one producer.

Plain text checks over ``src/repro`` in the style of
``tests/test_ci_workflow.py``: each names a second spelling that was
deleted once and must not grow back — re-derive the fact from its one
home instead.
"""

import os
import re

SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src", "repro")


def _hits(pattern, root=SRC):
    """``{relative path: matching line count}`` over the Python sources."""
    found = {}
    for directory, _, names in os.walk(root):
        for name in names:
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                with open(path) as handle:
                    count = len(re.findall(pattern, handle.read(), re.M))
                if count:
                    found[os.path.relpath(path, SRC)] = count
    return found


def test_queue_depth_hint_is_read_by_the_one_binder():
    """Stage 3 binds Ntasks in ``TaskUnitParams.bind``; elaboration, both
    RTL emitters and the lint take the bound value from there."""
    assert sorted(_hits(r"\brecommended_queue_depth\b")) == [
        os.path.join("accel", "config.py"),
        os.path.join("passes", "concurrency_opt.py")]
    assert _hits(r"\.recommended_queue_depth\b")[
        os.path.join("accel", "config.py")] == 1


def test_sensitivity_is_derived_from_ports():
    assert _hits(r"^\s*def sensitivity\b") == {
        os.path.join("sim", "component.py"): 1}


def test_rtl_structure_is_walked_once():
    """One walk maps dataflow nodes to library components; the Chisel
    and Verilog renderers consume it."""
    rtl = os.path.join(SRC, "rtl")
    assert _hits(r"\bKIND_TO_COMPONENT\b(?! = )", rtl) == {
        os.path.join("rtl", "__init__.py"): 2,      # re-export
        os.path.join("rtl", "components.py"): 1}    # component_for_kind
    assert _hits(r"\bcomponent_for_kind\(", rtl) == {
        os.path.join("rtl", "components.py"): 1,    # its definition
        os.path.join("rtl", "emit.py"): 1}          # txu_nodes
    assert _hits(r"\.dfgs\b", rtl) == {os.path.join("rtl", "emit.py"): 1}


def test_plumbing_sections_are_derived_not_mirrored():
    """``sim/derive.py`` reads a plumbing component's kernel section off the
    class's own ``tick`` / ``is_busy`` / ``next_wake``: the kernel generator
    holds no per-class emitter and neither module names a component's
    private state, and the five deadline queues share one ``next_wake``."""
    generators = {os.path.join("sim", "compile.py"),
                  os.path.join("sim", "derive.py")}
    assert not generators & set(_hits(
        r"_emit_(plumbing|arbiter|demux|dram|scratchpad|cache|databox)\b"
        r"|_pipe_deadline\b"))
    assert not generators & set(_hits(
        r"\b(_in_flight|_ready_responses|_pending_writebacks|_mshrs"
        r"|_outstanding|_pipe)\b"))
    assert _hits(r"^def _?pipe_wake\b") == {
        os.path.join("sim", "component.py"): 1}
    assert _hits(r"return pipe_wake\(") == {
        os.path.join("memory", "arbiter.py"): 2,
        os.path.join("memory", "cache.py"): 1,
        os.path.join("memory", "dram.py"): 1,
        os.path.join("memory", "scratchpad.py"): 1}
    assert _hits(r"\[0\]\[0\] > cycle") == {
        os.path.join("sim", "component.py"): 1}


def test_txu_arithmetic_is_spelled_once():
    """``ir/opsem.py`` is the one spelling of integer and f32 operation
    meaning: the compiled steppers specialise its table entries and the
    predictor evaluates through ``eval_pure``, so neither keeps an operator
    table, an emitter per operation or an evaluator of its own."""
    readers = {os.path.join("sim", "compile.py"),
               os.path.join("analysis", "perf.py")}
    assert not readers & set(_hits(
        r"\b(_ICMP_PY|_FCMP_PY|_INT_OPS|_FLT_OPS|_CAST_INT|_binop_lines"
        r"|_cast_lines|_f32|_wrap|_apply_binop|_apply_icmp)\b"))
    assert _hits(r"abs\([^()]*\)\s*//\s*abs\(") == {
        os.path.join("ir", "opsem.py"): 1}


def test_write_only_state_stays_deleted():
    assert not _hits(r"\b(block_entry_cycle|last_completion_cycle"
                     r"|frame_offset|unit_index|_used_fallback)\b"
                     r"|\binst\.spawned\b|\bself\.spawned\b")


def test_optimizer_is_one_walk():
    """``passes/optimize.py`` folds and shares in one dominator-order walk,
    ``value_number``: the separate fold, block-local CSE and GVN passes
    and the per-replacement whole-function rewrite stay deleted, and the
    walk's fold and key stay private to it."""
    assert not _hits(r"\b(constant_fold|common_subexpression_elimination"
                     r"|global_value_numbering|_replace_everywhere)\b")
    optimize = {os.path.join("passes", "optimize.py")}
    assert set(_hits(r"(?<!def )\b_fold\(")) == optimize
    assert set(_hits(r"(?<!def )\b_cse_key\(")) == optimize
