"""The TAPAS HLS generator: Stage 1 + Stage 2 lowering (paper Fig 3).

Stage 1 extracts the task graph (every spawn and call site resolved into
one :class:`~repro.passes.taskgraph.SpawnEdge`) and concurrency hints;
Stage 2 attaches per-block dataflow graphs and the frame layout to each
:class:`~repro.passes.taskgraph.Task`. Stage 3 (elaboration into a
simulatable accelerator) lives in :mod:`repro.accel.accelerator`.
"""

from __future__ import annotations

from typing import Dict

from repro.errors import SynthesisError
from repro.ir.instructions import Alloca
from repro.ir.module import Module
from repro.ir.verifier import verify_module
from repro.passes.concurrency_opt import TaskSizing, analyze_concurrency
from repro.passes.dataflow_graph import build_block_dfg
from repro.passes.task_extraction import extract_tasks
from repro.passes.taskgraph import Task, TaskGraph


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


def compile_task(task: Task) -> None:
    """Stage 2 for one task: per-block DFGs (a detach's spawn-argument
    marshalling becomes a dependency of its terminator node) and the
    frame layout, attached to the task itself."""
    for block in task.blocks:
        edge = task.spawns.get(block.terminator)
        extra = ()
        if edge is not None:
            extra = edge.args if edge.ret_ptr is None \
                else [*edge.args, edge.ret_ptr]
        task.dfgs[block] = build_block_dfg(block, extra)
    task.frame_size, task.frame_offsets = _frame_layout(task)


class GeneratedDesign:
    """Output of Stages 1+2: the architecture blueprint before elaboration.
    Task ``i`` of ``graph.tasks`` is the program of task unit ``i``."""

    def __init__(self, module: Module, graph: TaskGraph,
                 sizing: Dict[Task, TaskSizing]):
        self.module = module
        self.graph = graph
        self.sizing = sizing

    def __repr__(self):
        return f"<GeneratedDesign {self.module.name}: {len(self.graph.tasks)} units>"


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
        for task in graph.tasks:
            compile_task(task)
    return GeneratedDesign(module, graph, sizing)
