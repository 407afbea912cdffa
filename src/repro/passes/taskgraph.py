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
from repro.ir.instructions import Alloca, Call, Instruction, Load, Store
from repro.ir.values import Value
from repro.passes.dataflow_graph import BlockDFG, is_register_access
from repro.passes.mhp import spawn_contexts

FUNCTION_ROOT = "function"
DETACHED = "detached"


@dataclass
class SpawnEdge:
    """One spawn or call site, resolved once by extraction.

    ``site`` is a ``detach`` or a serial ``call``; ``target`` is the task
    it starts and ``args`` the values marshalled into that task's Args
    RAM. A detach whose region is just ``call f(args) [; store result]``
    is a *direct spawn* of ``f``'s task unit instead of an intermediate
    unit, and ``ret_ptr`` (if any) is where the child's return value is
    written on completion, the shared-cache return path of §IV-C."""

    site: Instruction
    target: "Task"
    args: List[Value]
    ret_ptr: Optional[Value] = None

    @property
    def is_call(self) -> bool:
        """A serial (blocking) call: spawn, then wait for the return."""
        return isinstance(self.site, Call)

    @property
    def callee(self) -> Optional[Function]:
        """The function spawned or called; None for a region spawn."""
        if self.target.kind == FUNCTION_ROOT:
            return self.target.function
        return None


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
        #: spawn/call site -> its edge: region spawns, then direct
        #: spawns, then serial calls, each in block order
        self.spawns: Dict[Instruction, SpawnEdge] = {}
        #: ordered live-in values = Args RAM layout of the task unit
        self.args: List[Value] = []
        # -- Stage 2 (accel.generator.compile_task) -----------------------
        #: per owned block, its dataflow graph
        self.dfgs: Dict[BasicBlock, BlockDFG] = {}
        #: per-instance frame bytes (0 if the task never uses frame slots)
        self.frame_size = 0
        self.frame_offsets: Dict[Alloca, int] = {}

    # -- Table II style metrics ------------------------------------------------

    def instruction_count(self) -> int:
        """Per-task #Inst (Table II): instructions in this task's region."""
        return sum(len(b.instructions) for b in self.blocks)

    def memory_op_count(self) -> int:
        """Per-task #Mem (Table II): loads/stores that reach real memory
        (register-file accesses to scalar allocas are excluded)."""
        count = 0
        for block in self.blocks:
            for inst in block.instructions:
                if isinstance(inst, (Load, Store)) and not is_register_access(inst):
                    count += 1
        return count

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

    # -- graph-level queries -----------------------------------------------

    def function_edges(self) -> Dict[Function, List[Function]]:
        """Function-level call/spawn graph, for recursion detection."""
        edges: Dict[Function, List[Function]] = {f: [] for f in self.module.functions}
        for task in self.tasks:
            for edge in task.spawns.values():
                if edge.callee is not None:
                    edges[task.function].append(edge.callee)
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
            stack.extend(edge.target for edge in current.spawns.values())
        return sorted(seen, key=lambda t: t.sid)

    def mhp_pairs(self) -> List[Tuple[Task, Task]]:
        """Task-level may-happen-in-parallel pairs, derived from the
        series-parallel spawn/sync structure. A pair ``(a, b)`` (with
        ``a.sid <= b.sid``; ``a is b`` means self-parallelism) says
        instances of the two static tasks may execute concurrently.
        Each spawn site's window comes from the one continuation walk,
        :func:`repro.passes.mhp.spawn_context`; the fine-grained race
        analysis in :mod:`repro.analysis` refines the same windows to
        instruction pairs."""
        pairs: Set[Tuple[int, int]] = set()

        def add(a: Task, b: Task):
            pairs.add((min(a.sid, b.sid), max(a.sid, b.sid)))

        for ctx in spawn_contexts(self):
            spawns = ctx.task.spawns
            subtree = self.spawn_closure(spawns[ctx.detach].target)
            # the spawning task keeps running in parallel with the child
            for spawned in subtree:
                add(ctx.task, spawned)
            overlapping = ctx.siblings + ([ctx.detach] if ctx.self_parallel
                                          else [])
            for sibling in overlapping:
                for b in self.spawn_closure(spawns[sibling].target):
                    for a in subtree:
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
            for edge in task.spawns.values():
                target = edge.target
                if edge.callee is None:
                    lines.append(f"    spawns T{target.sid} ({target.name})")
                elif edge.is_call:
                    lines.append(f"    calls  T{target.sid} (@{target.name})")
                else:
                    ret = " ->ret_ptr" if edge.ret_ptr is not None else ""
                    lines.append(f"    spawns T{target.sid} (@{target.name}){ret}")
        pairs = self.mhp_pairs()
        if pairs:
            rendered = ", ".join(f"(T{a.sid},T{b.sid})" for a, b in pairs)
            lines.append(f"  may-happen-in-parallel: {rendered}")
        return "\n".join(lines)

    def __repr__(self):
        return f"<TaskGraph {self.module.name}: {len(self.tasks)} tasks>"
