"""May-happen-in-parallel facts from the detach/reattach/sync structure.

Tapir's parallelism is *fully scoped* (series-parallel): a detach forks a
child region, and the only joins are the matching reattach (child side)
and a sync (parent side). That makes MHP decidable by a simple walk — no
whole-program interleaving exploration is needed:

for every spawn site ``D`` of a task,

* the spawned subtree runs in parallel with whatever the spawning task
  executes between ``D``'s continuation and the next ``sync``
  (``par_blocks``),
* it runs in parallel with the subtrees of any *sibling* spawn site
  reached in that window, and
* if the walk re-reaches ``D`` itself (a spawning loop, e.g. the body of
  a ``cilk_for``), distinct *instances* of the same subtree overlap
  (``self_parallel``).

Recursive parallelism (fib/mergesort spawning themselves) needs no
special casing here: it surfaces as sibling or self-parallel spawn sites
whose subtree *effects* are function summaries (see
:mod:`repro.analysis.memdep`).

:func:`spawn_context` is that one walk. The task-level pairs
(:meth:`repro.passes.taskgraph.TaskGraph.mhp_pairs`) and the
instruction-level race detector (:mod:`repro.analysis.races`) both read
its windows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List

from repro.ir.basicblock import BasicBlock
from repro.ir.instructions import Detach, Reattach, Ret, Sync

if TYPE_CHECKING:
    from repro.passes.taskgraph import Task, TaskGraph


def region_blocks(detach: Detach) -> List[BasicBlock]:
    """All raw-IR blocks of the detached region rooted at ``detach`` —
    the blocks reachable from ``detach.detached`` without passing through
    the continuation. Nested detached regions are included: everything a
    spawn of this region can execute directly."""
    seen = set()
    order: List[BasicBlock] = []
    stack = [detach.detached]
    while stack:
        block = stack.pop()
        if block in seen or block is detach.continuation:
            continue
        seen.add(block)
        order.append(block)
        term = block.terminator
        if term is None or isinstance(term, (Reattach, Ret)):
            continue
        stack.extend(term.successors())
    return order


@dataclass
class SpawnContext:
    """Everything that may run in parallel with one spawn site's subtree."""

    task: Task
    detach: Detach
    #: raw-IR blocks of the spawned region (direct work of the subtree)
    region: List[BasicBlock] = field(default_factory=list)
    #: task-owned blocks racing the subtree: continuation up to the sync
    par_blocks: List[BasicBlock] = field(default_factory=list)
    #: other spawn sites whose subtrees overlap this one in time
    siblings: List[Detach] = field(default_factory=list)
    #: a loop re-reaches this detach: instances of the subtree overlap
    self_parallel: bool = False


def spawn_context(task: Task, detach: Detach) -> SpawnContext:
    ctx = SpawnContext(task, detach, region=region_blocks(detach))
    owned = set(task.blocks)
    seen = set()
    stack = [detach.continuation]
    while stack:
        block = stack.pop()
        if block in seen or block not in owned:
            continue
        seen.add(block)
        ctx.par_blocks.append(block)
        term = block.terminator
        if term is None or isinstance(term, (Sync, Reattach, Ret)):
            continue  # a sync joins every outstanding child: stop the race
        if isinstance(term, Detach):
            if term is detach:
                ctx.self_parallel = True
            elif term not in ctx.siblings:
                ctx.siblings.append(term)
            stack.append(term.continuation)
            continue
        stack.extend(term.successors())
    return ctx


def spawn_contexts(graph: TaskGraph) -> List[SpawnContext]:
    """One :class:`SpawnContext` per spawn site in the task graph."""
    return [spawn_context(task, edge.site)
            for task in graph.tasks
            for edge in task.spawns.values() if not edge.is_call]
