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
