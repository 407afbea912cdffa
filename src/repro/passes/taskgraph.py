"""Task graph: the architecture blueprint extracted from parallel IR.

Stage 1 of TAPAS (paper §III-A, Fig 9) turns Tapir markers into an explicit
graph of *static tasks*. Each task becomes one task unit in the generated
accelerator; spawn edges become the detach/sync wiring between units.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.ir.basicblock import BasicBlock
from repro.ir.function import Function
from repro.ir.instructions import Call, Detach, Load, Store
from repro.ir.values import Value

FUNCTION_ROOT = "function"
DETACHED = "detached"


@dataclass
class DirectSpawn:
    """A detach whose region is just ``call f(args) [; store result]`` —
    lowered to a direct spawn of ``f``'s task unit instead of an
    intermediate unit. ``ret_ptr`` (if any) is where the child's return
    value is written on completion, the shared-cache return path of §IV-C."""

    detach: Detach
    callee: Function
    args: List[Value]
    ret_ptr: Optional[Value] = None


class Task:
    """A static task: a scoped region of the program dependence graph."""

    def __init__(self, sid: int, name: str, function: Function,
                 entry: BasicBlock, kind: str):
        self.sid = sid
        self.name = name
        self.function = function
        self.entry = entry
        self.kind = kind
        #: blocks owned by this task (nested child regions excluded)
        self.blocks: List[BasicBlock] = []
        self.parent: Optional[Task] = None
        #: nested detached-region child tasks
        self.children: List[Task] = []
        #: spawn site -> child Task (for region spawns)
        self.region_spawns: Dict[Detach, "Task"] = {}
        #: spawn site -> DirectSpawn (for function spawns)
        self.direct_spawns: Dict[Detach, DirectSpawn] = {}
        #: ordered live-in values = Args RAM layout of the task unit
        self.args: List[Value] = []
        #: serial (blocking) calls made from this task's region
        self.calls: List[Call] = []

    # -- Table II style metrics ------------------------------------------------

    def instruction_count(self) -> int:
        """Per-task #Inst (Table II): instructions in this task's region."""
        return sum(len(b.instructions) for b in self.blocks)

    def memory_op_count(self) -> int:
        """Per-task #Mem (Table II): loads/stores that reach real memory
        (register-file accesses to scalar allocas are excluded)."""
        from repro.passes.dataflow_graph import is_register_access

        count = 0
        for block in self.blocks:
            for inst in block.instructions:
                if isinstance(inst, (Load, Store)) and not is_register_access(inst):
                    count += 1
        return count

    def spawn_sites(self) -> List[Detach]:
        return list(self.region_spawns) + list(self.direct_spawns)

    def spawns_anything(self) -> bool:
        return bool(self.region_spawns or self.direct_spawns or self.calls)

    def __repr__(self):
        return f"<Task sid={self.sid} {self.name} [{self.kind}]>"


class TaskGraph:
    """All static tasks of a module plus spawn/call edges between them."""

    def __init__(self, module):
        self.module = module
        self.tasks: List[Task] = []
        self.root_for_function: Dict[Function, Task] = {}
        self._sid_counter = 0

    def new_task(self, name: str, function: Function, entry: BasicBlock,
                 kind: str) -> Task:
        task = Task(self._sid_counter, name, function, entry, kind)
        self._sid_counter += 1
        self.tasks.append(task)
        if kind == FUNCTION_ROOT:
            self.root_for_function[function] = task
        return task

    def task_by_sid(self, sid: int) -> Task:
        return self.tasks[sid]

    # -- graph-level queries -----------------------------------------------

    def spawn_targets(self, task: Task) -> List[Task]:
        """Tasks that ``task`` can spawn (region children + function roots
        of direct spawns), plus callees of serial calls."""
        targets = list(task.region_spawns.values())
        for spawn in task.direct_spawns.values():
            targets.append(self.root_for_function[spawn.callee])
        for call in task.calls:
            targets.append(self.root_for_function[call.callee])
        return targets

    def function_edges(self) -> Dict[Function, List[Function]]:
        """Function-level call/spawn graph, for recursion detection."""
        edges: Dict[Function, List[Function]] = {f: [] for f in self.module.functions}
        for task in self.tasks:
            for spawn in task.direct_spawns.values():
                edges[task.function].append(spawn.callee)
            for call in task.calls:
                edges[task.function].append(call.callee)
        return edges

    def is_recursive_function(self, function: Function) -> bool:
        """True if ``function`` can transitively reach itself."""
        edges = self.function_edges()
        seen = set()
        stack = list(edges.get(function, []))
        while stack:
            current = stack.pop()
            if current is function:
                return True
            if current in seen:
                continue
            seen.add(current)
            stack.extend(edges.get(current, []))
        return False

    def spawn_closure(self, task: Task) -> List[Task]:
        """``task`` plus every task transitively reachable through spawns
        and calls — the set of tasks a single spawn of ``task`` may put in
        flight."""
        seen: Set[Task] = set()
        stack = [task]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self.spawn_targets(current))
        return sorted(seen, key=lambda t: t.sid)

    def _detach_target(self, task: Task, detach: Detach) -> Task:
        child = task.region_spawns.get(detach)
        if child is not None:
            return child
        return self.root_for_function[task.direct_spawns[detach].callee]

    def unsynced_sibling_spawns(self, task: Task, detach: Detach) -> List[Detach]:
        """Spawn sites of ``task`` reachable from ``detach``'s continuation
        without crossing a ``sync`` — their subtrees may run in parallel
        with ``detach``'s subtree. Includes ``detach`` itself when a loop
        re-reaches it (self-parallel spawns, e.g. cilk_for bodies)."""
        from repro.ir.instructions import Sync

        owned = set(task.blocks)
        found: List[Detach] = []
        seen: Set[BasicBlock] = set()
        stack = [detach.continuation]
        while stack:
            block = stack.pop()
            if block in seen or block not in owned:
                continue
            seen.add(block)
            term = block.terminator
            if term is None or isinstance(term, Sync):
                continue  # sync joins every outstanding child: stop here
            if isinstance(term, Detach):
                found.append(term)
                stack.append(term.continuation)
                continue
            stack.extend(term.successors())
        return found

    def mhp_pairs(self) -> List[Tuple[Task, Task]]:
        """Task-level may-happen-in-parallel pairs, derived from the
        series-parallel spawn/sync structure. A pair ``(a, b)`` (with
        ``a.sid <= b.sid``; ``a is b`` means self-parallelism) says
        instances of the two static tasks may execute concurrently.
        The fine-grained race analysis in :mod:`repro.analysis` refines
        this to instruction pairs."""
        pairs: Set[Tuple[int, int]] = set()

        def add(a: Task, b: Task):
            pairs.add((min(a.sid, b.sid), max(a.sid, b.sid)))

        for task in self.tasks:
            for detach in task.spawn_sites():
                subtree = self.spawn_closure(self._detach_target(task, detach))
                # the spawning task keeps running in parallel with the child
                for spawned in subtree:
                    add(task, spawned)
                for sibling in self.unsynced_sibling_spawns(task, detach):
                    sibling_subtree = self.spawn_closure(
                        self._detach_target(task, sibling))
                    for a in subtree:
                        for b in sibling_subtree:
                            add(a, b)
        return [(self.tasks[a], self.tasks[b]) for a, b in sorted(pairs)]

    def describe(self) -> str:
        """Human-readable summary used by examples and docs."""
        lines = [f"task graph for module '{self.module.name}':"]
        for task in self.tasks:
            lines.append(
                f"  T{task.sid} {task.name} [{task.kind}] "
                f"insts={task.instruction_count()} mem={task.memory_op_count()} "
                f"args={len(task.args)}")
            for detach, child in task.region_spawns.items():
                lines.append(f"    spawns T{child.sid} ({child.name})")
            for spawn in task.direct_spawns.values():
                root = self.root_for_function[spawn.callee]
                ret = " ->ret_ptr" if spawn.ret_ptr is not None else ""
                lines.append(f"    spawns T{root.sid} (@{spawn.callee.name}){ret}")
            for call in task.calls:
                root = self.root_for_function[call.callee]
                lines.append(f"    calls  T{root.sid} (@{call.callee.name})")
        pairs = self.mhp_pairs()
        if pairs:
            rendered = ", ".join(f"(T{a.sid},T{b.sid})" for a, b in pairs)
            lines.append(f"  may-happen-in-parallel: {rendered}")
        return "\n".join(lines)

    def __repr__(self):
        return f"<TaskGraph {self.module.name}: {len(self.tasks)} tasks>"
