"""Compiler analyses and transforms over the parallel IR (Stage 1 of TAPAS)."""

from repro.passes.cfg import predecessor_map, reverse_post_order
from repro.passes.concurrency_opt import TaskSizing, analyze_concurrency
from repro.passes.dataflow_graph import (
    BlockDFG,
    DFGNode,
    build_block_dfg,
    classify,
    is_register_access,
)
from repro.passes.dominators import DominatorInfo, compute_dominators
from repro.passes.liveness import region_live_ins
from repro.passes.inline import (
    inline_call,
    inline_calls,
    prune_unreachable_functions,
)
from repro.passes.loops import Loop, find_loops
from repro.passes.optimize import (
    eliminate_dead_code,
    optimize_function,
    optimize_module,
    value_number,
)
from repro.passes.task_extraction import extract_tasks
from repro.passes.taskgraph import (
    DETACHED,
    FUNCTION_ROOT,
    DirectSpawn,
    Task,
    TaskGraph,
)

__all__ = [
    "predecessor_map", "reverse_post_order",
    "TaskSizing", "analyze_concurrency",
    "BlockDFG", "DFGNode", "build_block_dfg", "classify",
    "is_register_access",
    "DominatorInfo", "compute_dominators",
    "region_live_ins",
    "Loop", "find_loops",
    "inline_call", "inline_calls", "prune_unreachable_functions",
    "eliminate_dead_code", "optimize_function", "optimize_module",
    "value_number",
    "extract_tasks",
    "DETACHED", "FUNCTION_ROOT", "DirectSpawn", "Task", "TaskGraph",
]
