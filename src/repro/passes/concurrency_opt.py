"""Stage-1 concurrency optimisation: sizing hints for task units.

The paper's Stage 1 runs a "Concurrency Opt" step (Fig 3) before emitting
the top-level architecture. Here that means computing, per static task:

* whether its spawn sites sit inside loops (a loop spawner produces many
  children per parent instance -> the *child's* queue should be deep);
* whether the task participates in recursion (needs frame memory and a
  queue deep enough to hold the live spawn tree);
* a recommended task-queue depth (Ntasks), which Stage 3 may override.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.ir.instructions import Detach
from repro.passes.loops import find_loops
from repro.passes.taskgraph import Task, TaskGraph


@dataclass
class TaskSizing:
    """Per-task sizing recommendation consumed by the Stage-3 binder."""

    task: Task
    spawned_in_loop: bool
    recursive: bool
    recommended_queue_depth: int

    def __repr__(self):
        return (f"<TaskSizing T{self.task.sid} loop={self.spawned_in_loop} "
                f"rec={self.recursive} Ntasks={self.recommended_queue_depth}>")


DEFAULT_QUEUE_DEPTH = 4
LOOP_SPAWNED_QUEUE_DEPTH = 32   # paper's Fig 4 example instantiates Nt=32
#: Recursive tasks hold every live node of the spawn tree in the queue
#: (suspended parents keep their entries until children join), so the
#: queue must cover the whole tree or a circular wait ensues. The paper's
#: recursive benchmarks spend 62-74 BRAMs on exactly this (Table IV).
RECURSIVE_QUEUE_DEPTH = 2048


def analyze_concurrency(graph: TaskGraph) -> Dict[Task, TaskSizing]:
    """Compute sizing recommendations for every task in the graph."""
    # which (function, detach) sites are inside loops?
    loop_sites = set()
    for function in graph.module.functions:
        for loop in find_loops(function):
            for block in loop.blocks:
                term = block.terminator
                if isinstance(term, Detach):
                    loop_sites.add(term)

    # which tasks are spawned from inside a loop?
    spawned_in_loop = set()
    for task in graph.tasks:
        for site, edge in task.spawns.items():
            if site in loop_sites:
                spawned_in_loop.add(edge.target)

    sizing: Dict[Task, TaskSizing] = {}
    for task in graph.tasks:
        in_loop = task in spawned_in_loop
        recursive = graph.is_recursive_function(task.function)
        if recursive:
            depth = RECURSIVE_QUEUE_DEPTH
        elif in_loop:
            depth = LOOP_SPAWNED_QUEUE_DEPTH
        else:
            depth = DEFAULT_QUEUE_DEPTH
        sizing[task] = TaskSizing(task, in_loop, recursive, depth)
    return sizing
