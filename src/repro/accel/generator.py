"""The TAPAS HLS generator: Stage 1 + Stage 2 lowering (paper Fig 3).

Stage 1 extracts the task graph and concurrency hints; Stage 2 lowers each
task into a :class:`~repro.task.program.CompiledTask` — per-block dataflow
graphs, spawn/call specifications and frame layout. Stage 3 (elaboration
into a simulatable accelerator) lives in :mod:`repro.accel.accelerator`.
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import SynthesisError
from repro.ir.instructions import Alloca, Call, Detach
from repro.ir.module import Module
from repro.ir.verifier import verify_module
from repro.passes.concurrency_opt import TaskSizing, analyze_concurrency
from repro.passes.dataflow_graph import build_block_dfg
from repro.passes.task_extraction import extract_tasks
from repro.passes.taskgraph import Task, TaskGraph
from repro.task.program import CallSpec, CompiledTask, SpawnSpec


def _frame_layout(task: Task) -> (int, dict):
    """Assign offsets to the in-frame allocas of a task's own blocks."""
    offsets: Dict[Alloca, int] = {}
    cursor = 0
    for block in task.blocks:
        for inst in block.instructions:
            if isinstance(inst, Alloca) and inst.in_frame:
                size = max(1, inst.allocated_type.size_bytes)
                align = min(8, size)
                cursor = (cursor + align - 1) // align * align
                offsets[inst] = cursor
                cursor += size
    # round the frame to 8 bytes so per-dyid frames stay aligned
    frame_size = (cursor + 7) // 8 * 8 if cursor else 0
    return frame_size, offsets


def compile_task(graph: TaskGraph, task: Task) -> CompiledTask:
    """Stage 2 for one task: spawn specs, call specs, DFGs, frame layout."""
    spawn_specs: Dict[Detach, SpawnSpec] = {}
    for detach, child in task.region_spawns.items():
        spawn_specs[detach] = SpawnSpec(
            dest_sid=child.sid, arg_values=list(child.args))
    for detach, direct in task.direct_spawns.items():
        dest = graph.root_for_function[direct.callee]
        spawn_specs[detach] = SpawnSpec(
            dest_sid=dest.sid, arg_values=list(direct.args),
            ret_ptr_value=direct.ret_ptr)

    call_specs: Dict[Call, CallSpec] = {}
    for call in task.calls:
        dest = graph.root_for_function[call.callee]
        call_specs[call] = CallSpec(dest_sid=dest.sid,
                                    arg_values=list(call.args))

    # spawn-argument marshalling becomes a dependency of each detach
    spawn_deps = {}
    for detach, spec in spawn_specs.items():
        values = list(spec.arg_values)
        if spec.ret_ptr_value is not None:
            values.append(spec.ret_ptr_value)
        spawn_deps[detach] = values

    dfgs = {}
    for block in task.blocks:
        term = block.terminator
        extra = spawn_deps.get(term, ()) if term is not None else ()
        dfgs[block] = build_block_dfg(block, extra)

    frame_size, frame_offsets = _frame_layout(task)

    return CompiledTask(
        sid=task.sid,
        name=task.name,
        task=task,
        entry_block=task.entry,
        blocks=list(task.blocks),
        dfgs=dfgs,
        arg_values=list(task.args),
        spawn_specs=spawn_specs,
        call_specs=call_specs,
        frame_size=frame_size,
        frame_offsets=frame_offsets,
    )


class GeneratedDesign:
    """Output of Stages 1+2: the architecture blueprint before elaboration."""

    def __init__(self, module: Module, graph: TaskGraph,
                 compiled: List[CompiledTask],
                 sizing: Dict[Task, TaskSizing]):
        self.module = module
        self.graph = graph
        self.compiled = compiled
        self.sizing = sizing

    def compiled_for(self, name: str) -> CompiledTask:
        for ct in self.compiled:
            if ct.name == name:
                return ct
        raise SynthesisError(f"no task named {name}")

    def __repr__(self):
        return f"<GeneratedDesign {self.module.name}: {len(self.compiled)} units>"


def generate(module: Module, optimize: bool = True) -> GeneratedDesign:
    """Run Stage 1 and Stage 2 over a verified module.

    ``optimize`` runs the Fig 3 "opt" boxes first (one value-numbering
    walk that folds constants and shares duplicate pure operations, then
    dead-code elimination) — every surviving operation becomes a real
    functional unit, so cleanup directly shrinks the TXUs.
    """
    from repro.telemetry.spans import TRACER

    verify_module(module)
    if optimize:
        from repro.passes.optimize import optimize_module

        with TRACER.span("passes.optimize", category="generate",
                         module=module.name):
            optimize_module(module)
        verify_module(module)
    with TRACER.span("generate.tasks", category="generate",
                     module=module.name):
        graph = extract_tasks(module)
        if not graph.tasks:
            raise SynthesisError(f"module {module.name} has no functions")
        sizing = analyze_concurrency(graph)
        compiled = [compile_task(graph, task) for task in graph.tasks]
    # SIDs must be dense and positional: unit i serves SID i
    for i, ct in enumerate(compiled):
        if ct.sid != i:
            raise SynthesisError("task SIDs are not dense")
    return GeneratedDesign(module, graph, compiled, sizing)
