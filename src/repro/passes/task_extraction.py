"""Task extraction: Tapir markers -> explicit task graph (paper Fig 9).

The pass walks each function's CFG. Detach edges open a new task region;
reattach edges close it. A region that consists of nothing but a single
call (plus an optional store of its result) collapses to a *direct spawn*
of the callee's task unit — this is how ``cilk_spawn f(...)`` and recursive
parallelism (mergesort, fib) map onto hardware without intermediate units.

Every spawn and call site is resolved here, once, into the
:class:`~repro.passes.taskgraph.SpawnEdge` that Stage 2, elaboration, the
simulators and the analyses all read.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.errors import PassError
from repro.ir.basicblock import BasicBlock
from repro.ir.function import Function
from repro.ir.instructions import (
    Call,
    Detach,
    Instruction,
    Reattach,
    Ret,
    Store,
)
from repro.ir.module import Module
from repro.ir.values import Argument, Value
from repro.passes.liveness import region_live_ins
from repro.passes.taskgraph import (
    DETACHED,
    FUNCTION_ROOT,
    SpawnEdge,
    Task,
    TaskGraph,
)

#: a direct spawn (its detach, the call it wraps, its ret_ptr) or a call
#: (the call twice, no ret_ptr): a site whose target is a function's root
_Site = Tuple[Instruction, Call, Optional[Value]]


def _region_blocks(entry: BasicBlock, continuation: BasicBlock) -> List[BasicBlock]:
    """Blocks belonging to one task region.

    Traversal starts at the region entry; detached sub-regions are skipped
    (a Detach contributes only its continuation edge — the detached blocks
    belong to the child task); a Reattach to ``continuation`` closes the
    region. ``continuation=None`` means a function root region, closed by
    ``ret``.
    """
    owned: List[BasicBlock] = []
    seen: Set[BasicBlock] = set()
    stack = [entry]
    while stack:
        block = stack.pop()
        if block in seen or block is continuation:
            continue
        seen.add(block)
        owned.append(block)
        term = block.terminator
        if term is None:
            raise PassError(f"unterminated block {block.name} during extraction")
        if isinstance(term, Reattach):
            if continuation is None:
                raise PassError(
                    f"reattach outside any detached region in {block.name}")
            continue  # region closed on this path
        if isinstance(term, Ret):
            continue
        if isinstance(term, Detach):
            stack.append(term.continuation)  # detached blocks go to the child
            continue
        stack.extend(term.successors())
    # deterministic order: function block order
    order = {b: i for i, b in enumerate(entry.parent.blocks)}
    owned.sort(key=lambda b: order[b])
    return owned


def _match_direct_spawn(region: List[BasicBlock]):
    """Recognise a region of shape ``[call f(...) (, store result, ptr)?,
    reattach]`` in a single block; returns ``(call, ret_ptr or None)`` or
    None."""
    if len(region) != 1:
        return None
    block = region[0]
    body = block.body()
    if not isinstance(block.terminator, Reattach):
        return None
    if len(body) == 1 and isinstance(body[0], Call):
        return body[0], None
    if (len(body) == 2 and isinstance(body[0], Call)
            and isinstance(body[1], Store) and body[1].value is body[0]):
        ptr = body[1].pointer
        # the pointer must come from outside the region, else the region
        # has real local computation and must stay a task of its own.
        if isinstance(ptr, Instruction) and ptr.parent is block:
            return None
        return body[0], ptr
    return None


def _value_order_key(function: Function):
    """Deterministic ordering for task argument lists: function arguments
    first (by index), then instructions in (block, position) order."""
    positions = {}
    for bi, block in enumerate(function.blocks):
        for ii, inst in enumerate(block.instructions):
            positions[inst] = (1, bi, ii)

    def key(value):
        if isinstance(value, Argument):
            return (0, value.index, 0)
        return positions.get(value, (2, 0, 0))

    return key


def _extract_region(graph: TaskGraph, task: Task, continuation,
                    sites: Dict[Task, List[_Site]]):
    """Populate ``task`` with its blocks and region spawns, recurse into
    nested detaches, and leave its direct spawns, then its calls, in
    ``sites`` (their targets may not exist yet)."""
    task.blocks = _region_blocks(task.entry, continuation)
    direct: List[_Site] = []
    calls: List[_Site] = []
    for block in task.blocks:
        term = block.terminator
        if isinstance(term, Detach):
            child_region = _region_blocks(term.detached, term.continuation)
            match = _match_direct_spawn(child_region)
            if match is not None:
                direct.append((term, *match))
            else:
                child = graph.new_task(
                    f"{task.name}.t{len(task.children)}", task.function,
                    term.detached, DETACHED)
                child.parent = task
                task.children.append(child)
                _extract_region(graph, child, term.continuation, sites)
                task.spawns[term] = SpawnEdge(term, child, child.args)
        calls += [(inst, inst, None) for inst in block.body()
                  if isinstance(inst, Call)]
    sites[task] = direct + calls

    # Task arguments: live-ins of the region *including* nested regions —
    # a value a grandchild needs must flow through this task's Args RAM.
    all_blocks = list(task.blocks)
    stack = list(task.children)
    while stack:
        child = stack.pop()
        all_blocks.extend(child.blocks)
        stack.extend(child.children)
    live = region_live_ins(all_blocks)
    if task.kind == FUNCTION_ROOT:
        task.args = list(task.function.arguments)
    else:
        task.args = sorted(live, key=_value_order_key(task.function))


def extract_tasks(module: Module) -> TaskGraph:
    """Run Stage-1 task extraction over a whole module."""
    graph = TaskGraph(module)
    sites: Dict[Task, List[_Site]] = {}
    for function in module.functions:
        root = graph.new_task(function.name, function, function.entry,
                              FUNCTION_ROOT)
        _extract_region(graph, root, None, sites)

    # every function root exists now: resolve each site's target once
    for task in graph.tasks:
        for site, call, ret_ptr in sites[task]:
            target = graph.root_for_function.get(call.callee)
            if target is None:
                kind = "call to" if site is call else "direct spawn of"
                raise PassError(
                    f"{kind} unknown function {call.callee.name}")
            task.spawns[site] = SpawnEdge(site, target, list(call.args),
                                          ret_ptr)
    return graph
