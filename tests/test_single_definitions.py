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
    """Stage 3 binds Ntasks in ``TaskUnitParams.bind``; elaboration and
    the lint take the bound value from there, the RTL from elaboration."""
    assert sorted(_hits(r"\brecommended_queue_depth\b")) == [
        os.path.join("accel", "config.py"),
        os.path.join("passes", "concurrency_opt.py")]
    assert _hits(r"\.recommended_queue_depth\b")[
        os.path.join("accel", "config.py")] == 1


def test_sensitivity_is_derived_from_ports():
    assert _hits(r"^\s*def sensitivity\b") == {
        os.path.join("sim", "component.py"): 1}


def test_rtl_structure_is_walked_once():
    """One walk maps dataflow nodes to library components and one walk
    reads the elaborated netlist; the Chisel and Verilog renderers consume
    both, and neither re-derives Stage 3 or the spawn wiring."""
    rtl = os.path.join(SRC, "rtl")
    assert _hits(r"\.spawns\b|\bbind_unit\b", rtl) == {}
    assert _hits(r"\bbuild_channel_graph\(", rtl) == {
        os.path.join("rtl", "emit.py"): 1}          # netlist
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
    """State the product writes and nothing reads, the write-only kernel
    mirror among it: ``ResultCache`` is the one on-disk store, and the
    kernel codegen keys its in-process modules by their text alone."""
    assert not _hits(r"\b(block_entry_cycle|last_completion_cycle"
                     r"|frame_offset|unit_index|_used_fallback"
                     r"|first_dispatch_cycle|node_for_inst|node_count"
                     r"|_store_kernel_source|kernel_cache_dir)\b"
                     r"|\binst\.spawned\b|\bself\.spawned\b")
    compiler = os.path.join("sim", "compile.py")
    assert compiler not in _hits(r"^\s*(from|import) repro\.fingerprint\b")


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


def test_instance_scheduler_is_written_once():
    """``TXUTile.tick`` and ``_schedule`` in ``task/txu.py`` are the one
    TXU instance scheduler: the instance loop, its gate, the wake/park
    rule and the stall markers of parked instances. The kernel derives its
    tile sections and loops from them (``sim/derive.py::tile_section`` /
    ``tile_loop``), so the unit emitter holds no instance loop and the
    generated steppers only report what a step did."""
    import ast

    with open(os.path.join(SRC, "sim", "compile.py")) as handle:
        source = handle.read()
    found = {node.name: ast.get_source_segment(source, node)
             for node in ast.walk(ast.parse(source))
             if getattr(node, "name", None) in (
                 "_emit_unit", "_StepperGen", "_stepper_module")}
    assert len(found) == 3
    assert "for inst in" not in found["_emit_unit"]
    for emitter in ("_StepperGen", "_stepper_module"):
        assert not re.search(r"\.(wake_at|park) *=", found[emitter])
    assert set(_hits(r"\.(wake_at|park) = ")) == {
        os.path.join("task", "txu.py")}


def test_counts_are_derived_not_ticked():
    """Busy and stall cycles are read off occupancy spans and traffic
    counts off channel totals, so no engine rebuilds a count a skipped
    tick missed: the catch-up accounting stays deleted and the generated
    kernel assigns none of the derived counts."""
    from repro.sim.compile import generate_modules
    from repro.workloads import REGISTRY
    from tests.sim.grid_corpus import MEMORIES

    assert not _hits(r"\b(_catch_up|_synced_to)\b")
    assigned = re.compile(r"\b(busy_cycles|stalled_cycles|grants|routed"
                          r"|accesses|forwarded|spawns_issued)\s*[-+]?=(?!=)")
    workload = REGISTRY.get("saxpy")
    for memory in MEMORIES.values():
        accel = workload.build(workload.default_config(2, **memory))
        for text in generate_modules(accel.sim):
            assert not assigned.search(text)


def test_stepper_specialises_nodes_only():
    """The generated steppers specialise what runs per node per step --
    readiness, the one-firing hazard, firing and block entry -- and call
    ``TXUTile``'s own code for a spawn and a finish; the return-value store
    reaches the kernel derived with the rest of ``_schedule``. An issued
    memory or call node's done-cycle is its pending record, so neither an
    ``Instance`` nor a stepper keeps a pending set."""
    import ast

    from repro.sim.compile import generate_modules
    from repro.sim.trace import Trace
    from repro.task.txu import Instance
    from repro.workloads import REGISTRY

    for name in ("fibonacci", "dedup"):
        workload = REGISTRY.get(name)
        for trace in (None, Trace(enabled=True)):
            accel = workload.build(workload.default_config(2), trace=trace)
            for text in generate_modules(accel.sim)[1:]:
                for needle in ("SpawnMessage(", "def Te(", "pending_"):
                    assert needle not in text, (name, needle)
    assert not [slot for slot in Instance.__slots__ if "pending" in slot]
    with open(os.path.join(SRC, "sim", "compile.py")) as handle:
        tree = ast.parse(handle.read())
    gen, = [node for node in ast.walk(tree)
            if getattr(node, "name", None) == "_StepperGen"]
    assert "finish_lines" not in {node.name for node in gen.body
                                  if isinstance(node, ast.FunctionDef)}


def test_spawn_targets_are_resolved_once():
    """Extraction resolves each spawn and call site once, into the
    ``SpawnEdge`` every later stage reads: outside ``passes/`` only
    ``PerfModel.entry_task`` looks a function's task up, Stage 2 keeps no
    second copy of the task, and task-level MHP reads the one continuation
    walk, ``passes/mhp.py::spawn_context``."""
    assert _hits(r"\broot_for_function(\[|\.get\()") == {
        os.path.join("passes", "taskgraph.py"): 1,       # new_task
        os.path.join("passes", "task_extraction.py"): 1,  # extract_tasks
        os.path.join("analysis", "perf.py"): 1}           # entry_task
    assert not _hits(r"\b(CompiledTask|SpawnSpec|CallSpec|compiled_for"
                     r"|spawn_specs|call_specs|unsynced_sibling_spawns"
                     r"|_detach_target|_detach_callees)\b")
    assert not os.path.exists(os.path.join(SRC, "task", "program.py"))
    assert _hits(r"^def spawn_context\b") == {
        os.path.join("passes", "mhp.py"): 1}


def test_host_time_is_attributed_in_the_kernel():
    """Host time has one producer, the compiled kernel's clock: the engine
    times no commit, tick or run loop of its own beyond ``host_seconds``
    (its one nanosecond reading is the kernel load, in ``_run_compiled``),
    and the profiler wraps no component's ``tick``."""
    import ast

    with open(os.path.join(SRC, "sim", "engine.py")) as handle:
        engine = ast.parse(handle.read())
    assert {function.name for function in ast.walk(engine)
            if isinstance(function, ast.FunctionDef)
            and any(isinstance(node, ast.Attribute) and node.attr == "perf_counter_ns"
                    for node in ast.walk(function))} == {"_run_compiled"}
    with open(os.path.join(SRC, "telemetry", "hostprof.py")) as handle:
        tree = ast.parse(handle.read())
    assert not [node for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr == "tick"
                and isinstance(node.ctx, ast.Store)]
    assert "setattr" not in {node.id for node in ast.walk(tree)
                             if isinstance(node, ast.Name)}


def test_test_oracles_stay_out_of_the_product():
    """The race and range oracles live in ``tests/oracles``: the product
    imports nothing from ``tests`` and keeps no module or hook for them."""
    assert not _hits(r"^\s*(from|import)\s+tests\b|\bvalue_probe\b")
    assert not {"dynamic.py", "rangecheck.py"} & set(
        os.listdir(os.path.join(SRC, "analysis")))


def test_demux_routes_are_data():
    """A demux routes by its declared key ``(field, divisor, mask)``, which
    the kernel and both RTL tops read: no route is a callable, and one
    method, ``Demux.port_of``, turns a message into a port for ``tick``
    and ``obs_classify`` alike."""
    assert not _hits(r"\bDemux\((?:[^()]|\([^()]*\))*\blambda\b")
    assert not _hits(r"\broute=|\.route\(")
    assert _hits(r"\bdef port_of\b|// self\.divisor & self\.mask\b") == {
        os.path.join("memory", "arbiter.py"): 2}
    assert _hits(r"\.port_of\(") == {os.path.join("memory", "arbiter.py"): 2}


def test_observation_keeps_one_path_per_job():
    """Ledgers and probes share one booking loop, ``_ChangeLog._book``, and
    the validator is one pass: the whole-log fast paths and the lean
    pre-check stay deleted."""
    obs = os.path.join(SRC, "obs")
    assert _hits(r"^\s*def _book\b", obs) == {os.path.join("obs", "accounting.py"): 1}
    assert not _hits(r"\b_well_formed\b")
    assert not _hits(r"\b_distinct_runs\b")


def test_options_nothing_sets_stay_constants():
    """Calibration and keyword options that no caller set are constants:
    the predictor's and the static-HLS baseline's calibration, and each
    keyword below, stay out of their functions' signatures."""
    import dataclasses
    import inspect

    from repro.accel.config import Board
    from repro.analysis import lint_design, perf
    from repro.analysis.perfcheck import PerfChecker
    from repro.baselines.static_hls import StaticHLSModel, synthesize_static
    from repro.memory.backing import MainMemory
    from repro.obs.perfetto import chrome_trace, export_chrome_trace
    from repro.reports.profile import render_profile_report
    from repro.reports.resources import _unit_resources, estimate_resources
    from repro.reports.visualize import execution_timeline
    from repro.sim.engine import Simulator
    from repro.telemetry.spans import host_trace_events

    dropped = [
        (perf.PerfModel, {"params"}),
        (PerfChecker, {"params"}),
        (synthesize_static, {"model"}),
        (chrome_trace, {"include_idle"}),
        (export_chrome_trace, {"include_idle"}),
        (estimate_resources, {"ranges"}),
        (_unit_resources, {"include_suspend_state"}),
        (lint_design, {"ranges"}),
        (execution_timeline, {"width", "kinds", "sources"}),
        (render_profile_report, {"top"}),
        (MainMemory.reserve_region, {"align"}),
        (Board.dram_latency_cycles, {"mhz"}),
        (Simulator.enable_host_profile, {"profiler"}),
        (host_trace_events, {"first_tid"}),
    ]
    for function, names in dropped:
        kept = names & set(inspect.signature(function).parameters)
        assert not kept, (function.__qualname__, kept)
    assert not hasattr(perf, "PerfParams")
    assert not dataclasses.is_dataclass(StaticHLSModel)
