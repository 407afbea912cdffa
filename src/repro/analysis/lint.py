"""Hardware lint: rule registry over the IR design and elaborated netlist.

The race analysis (PR 1) answers "is this program safe to parallelise";
the lint layer answers "is the *accelerator we would generate* well
formed" — are spawn-channel endpoints type-consistent, is every task
unit reachable, can the spawn network certainly deadlock, and where is
datapath width being wasted.  Rules come in two scopes:

``design``
    Run on a :class:`~repro.accel.generator.GeneratedDesign` (before
    elaboration); these also gate :func:`repro.accel.build_accelerator`
    when ``AcceleratorConfig.analysis_level`` asks for it.

``netlist``
    Need the elaborated component/channel network of an
    :class:`~repro.accel.accelerator.Accelerator`; run by
    ``repro lint`` (``lint_design(..., accelerator=accel)``).

Every rule emits :class:`~repro.analysis.diagnostics.Diagnostic` objects
with stable ``TAP-NET-*`` / ``TAP-WIDTH-*`` codes (catalogued in
``docs/analysis.md``).  The registry is deterministic: rules run in
lexicographic code order and each rule visits the design in a fixed
traversal, so two lints of the same module render identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.accel.config import AcceleratorConfig, TaskUnitParams
from repro.analysis.diagnostics import (
    CODES,
    SEVERITY_ERROR,
    SEVERITY_INFO,
    SEVERITY_WARNING,
    Diagnostic,
    DiagnosticReport,
)
from repro.analysis.netlist import (
    build_channel_graph,
    cycle_buffering,
    find_component_cycles,
    verify_netlist,
)
from repro.analysis.ranges import (
    ModuleRanges,
    bits_for,
    full_range,
    infer_module_ranges,
)
from repro.ir.function import Function
from repro.ir.instructions import Call, Cast, CondBr, Detach, Ret
from repro.ir.types import IntType, PointerType
from repro.passes.taskgraph import FUNCTION_ROOT

#: lint rule codes -> (default severity, short title); merged into the
#: shared diagnostics registry at import time so Diagnostic() defaults work
LINT_CODES: Dict[str, Tuple[str, str]] = {
    "TAP-NET-001": (SEVERITY_ERROR, "spawn-channel endpoint mismatch"),
    "TAP-NET-002": (SEVERITY_WARNING, "dead task"),
    "TAP-NET-003": (SEVERITY_INFO, "spawn-network channel cycle"),
    "TAP-NET-004": (SEVERITY_ERROR, "certain deadlock"),
    "TAP-NET-005": (SEVERITY_INFO, "static queue occupancy bound"),
    "TAP-NET-006": (SEVERITY_WARNING, "netlist structure"),
    "TAP-WIDTH-001": (SEVERITY_INFO, "channel narrowing opportunity"),
    "TAP-WIDTH-002": (SEVERITY_INFO, "datapath narrowing opportunity"),
    "TAP-WIDTH-003": (SEVERITY_WARNING, "possibly lossy truncation"),
}
CODES.update(LINT_CODES)

SCOPE_DESIGN = "design"
SCOPE_NETLIST = "netlist"


@dataclass(frozen=True)
class LintRule:
    """One registered rule: a stable code plus its check function."""

    code: str
    title: str
    scope: str
    check: Callable[["LintContext"], List[Diagnostic]]


_RULES: Dict[str, LintRule] = {}


def rule(code: str, scope: str = SCOPE_DESIGN):
    """Decorator registering ``fn`` as the checker for ``code``."""

    def register(fn):
        if code in _RULES:
            raise ValueError(f"duplicate lint rule {code}")
        if code not in CODES:
            raise ValueError(f"unregistered diagnostic code {code}")
        _RULES[code] = LintRule(code, CODES[code][1], scope, fn)
        return fn

    return register


def lint_rules(scope: Optional[str] = None) -> Tuple[LintRule, ...]:
    """All registered rules in deterministic (code-sorted) order."""
    codes = sorted(_RULES)
    if scope is not None:
        codes = [c for c in codes if _RULES[c].scope == scope]
    return tuple(_RULES[c] for c in codes)


@dataclass
class LintContext:
    """Everything a rule may look at.  ``accelerator`` is None for
    design-scope lints (e.g. the build gate, which runs pre-elaboration)."""

    design: object
    entry: Optional[Function] = None
    config: object = None
    ranges: Optional[ModuleRanges] = None
    accelerator: object = None
    _reachable: Optional[Set[Function]] = field(default=None, repr=False)

    @property
    def module(self):
        return self.design.module

    @property
    def graph(self):
        return self.design.graph

    def queue_depth_for(self, task) -> int:
        """The task-queue depth Stage 3 binds for ``task``'s unit."""
        config = self.config or AcceleratorConfig()
        return config.bind_unit(self.design, task).queue_depth

    def reachable_functions(self) -> Optional[Set[Function]]:
        """Functions reachable from the entry along spawn/call edges, or
        None when no entry was designated."""
        if self.entry is None:
            return None
        if self._reachable is None:
            edges = self.graph.function_edges()
            seen = {self.entry}
            stack = [self.entry]
            while stack:
                for callee in edges.get(stack.pop(), ()):
                    if callee not in seen:
                        seen.add(callee)
                        stack.append(callee)
            self._reachable = seen
        return self._reachable


# ---------------------------------------------------------------------------
# design-scope rules
# ---------------------------------------------------------------------------

@rule("TAP-NET-001")
def _check_endpoint_types(ctx: LintContext) -> List[Diagnostic]:
    """Spawn-channel endpoints must agree on payload types: every direct
    spawn's arguments against the callee's parameters, and the return
    pointer's pointee against the callee's return type."""
    out: List[Diagnostic] = []
    for task in ctx.graph.tasks:
        for spawn in task.spawns.values():
            callee = spawn.callee
            if callee is None or spawn.is_call:
                continue  # direct spawns only
            loc = spawn.site.loc
            if len(spawn.args) != len(callee.arguments):
                out.append(Diagnostic(
                    code="TAP-NET-001",
                    message=(f"spawn of '{callee.name}' sends "
                             f"{len(spawn.args)} argument(s) but the task "
                             f"unit expects {len(callee.arguments)}"),
                    function=task.function.name, loc=loc,
                    data={"callee": callee.name,
                          "sent": len(spawn.args),
                          "expected": len(callee.arguments)},
                ))
            else:
                for i, (arg, param) in enumerate(zip(spawn.args, callee.arguments)):
                    if arg.type != param.type:
                        out.append(Diagnostic(
                            code="TAP-NET-001",
                            message=(f"spawn argument {i} of '{callee.name}' "
                                     f"has type {arg.type} but the channel "
                                     f"endpoint is {param.type}"),
                            function=task.function.name, loc=loc,
                            data={"callee": callee.name, "arg": i,
                                  "sent_type": str(arg.type),
                                  "expected_type": str(param.type)},
                        ))
            if spawn.ret_ptr is not None:
                ptr_type = spawn.ret_ptr.type
                pointee = getattr(ptr_type, "pointee", None)
                if not isinstance(ptr_type, PointerType) \
                        or pointee != callee.return_type:
                    out.append(Diagnostic(
                        code="TAP-NET-001",
                        message=(f"return channel of '{callee.name}' writes "
                                 f"{callee.return_type} through a pointer of "
                                 f"type {ptr_type}"),
                        function=task.function.name, loc=loc,
                        data={"callee": callee.name,
                              "pointer_type": str(ptr_type),
                              "return_type": str(callee.return_type)},
                    ))
    return out


@rule("TAP-NET-002")
def _check_dead_tasks(ctx: LintContext) -> List[Diagnostic]:
    """With a designated entry, every function in the module elaborates to
    a task unit — one that is never spawned or called from the entry is
    dead silicon."""
    reachable = ctx.reachable_functions()
    if reachable is None:
        return []
    out: List[Diagnostic] = []
    for function in ctx.module.functions:
        if function in reachable:
            continue
        out.append(Diagnostic(
            code="TAP-NET-002",
            message=(f"task unit for '{function.name}' is never spawned or "
                     f"called from entry '{ctx.entry.name}'"),
            function=function.name,
            suggestion="remove the function or spawn it from the entry",
            data={"entry": ctx.entry.name,
                  "task": function.name},  # its root task's name
        ))
    return out


@rule("TAP-NET-003")
def _check_cycle_buffering(ctx: LintContext) -> List[Diagnostic]:
    """Channel cycles in the spawn network.

    Every generated task network is structurally cyclic (units share one
    spawn arbiter/demux pair), but the cycle only matters when task
    instances can pile up unboundedly — i.e. when a task recurses.  For
    recursive tasks the sizing pass provisions a deep queue; flag an
    *under-buffered* cycle (warning) when a config override shrinks the
    queue below that recommendation, otherwise record the provisioning
    as a note.  With an elaborated netlist available, the aggregate
    buffering is measured on the real component cycle instead of
    recomputed from sizing.
    """
    out: List[Diagnostic] = []
    measured: Dict[str, int] = {}
    if ctx.accelerator is not None:
        sim = ctx.accelerator.sim
        graph = build_channel_graph(
            sim, external=[ctx.accelerator.network.host_spawn])
        for scc in find_component_cycles(graph):
            slots = cycle_buffering(graph, scc)
            for component in scc:
                measured[component.name] = slots
    for task in ctx.graph.tasks:
        if task.kind != FUNCTION_ROOT:
            continue
        sizing = ctx.design.sizing[task]
        if not sizing.recursive:
            continue
        depth = ctx.queue_depth_for(task)
        recommended = TaskUnitParams().bind(sizing).queue_depth
        data = {"task": task.name, "queue_depth": depth,
                "recommended_depth": recommended}
        unit_name = None
        if ctx.accelerator is not None:
            unit_name = f"T{task.sid}:{task.name}"
            if unit_name in measured:
                data["cycle_buffer_slots"] = measured[unit_name]
        if depth < recommended:
            out.append(Diagnostic(
                code="TAP-NET-003", severity=SEVERITY_WARNING,
                message=(f"under-buffered channel cycle: recursive task "
                         f"'{task.name}' sits on a spawn-network cycle with "
                         f"queue depth {depth}, below the sizing pass's "
                         f"recommendation of {recommended}"),
                function=task.function.name,
                suggestion=("drop the queue_depth override or raise it to "
                            f"{recommended}"),
                data=data,
            ))
        else:
            out.append(Diagnostic(
                code="TAP-NET-003", severity=SEVERITY_INFO,
                message=(f"recursive task '{task.name}' closes a "
                         f"spawn-network channel cycle; its task queue is "
                         f"provisioned at depth {depth} for recursion"),
                function=task.function.name,
                data=data,
            ))
    return out


def _can_complete(function: Function, diverging: Set[Function],
                  callees: Dict[object, Optional[Function]],
                  ranges: Optional[ModuleRanges]) -> bool:
    """True if some CFG path through ``function`` reaches a return without
    calling or spawning into ``diverging``.

    A blocking call into a diverging function cuts the path where it
    occurs; a detach of a diverging function also cuts the path, because
    the parent instance cannot retire until the spawned child joins.
    Branches whose condition has a singleton inferred range follow only
    the feasible edge, so range analysis sharpens the verdict.
    """
    seen: Set[object] = set()
    stack = [function.entry]
    while stack:
        block = stack.pop()
        if block in seen:
            continue
        seen.add(block)
        cut = False
        for inst in block.instructions:
            if isinstance(inst, Call) and inst.callee in diverging:
                cut = True
                break
        if cut:
            continue
        term = block.terminator
        if term is None:
            continue
        if isinstance(term, Ret):
            return True
        if isinstance(term, Detach):
            callee = callees.get(term)
            if callee is not None and callee in diverging:
                continue  # the spawned child never joins
            stack.extend(term.successors())
        elif isinstance(term, CondBr) and ranges is not None:
            cond = ranges.range_of(term.cond)
            if cond is not None and cond.is_singleton():
                stack.append(term.if_true if cond.lo else term.if_false)
            else:
                stack.extend(term.successors())
        else:
            stack.extend(term.successors())
    return False


def diverging_functions(design, ranges: Optional[ModuleRanges] = None
                        ) -> Set[Function]:
    """Functions that can *never* complete once invoked.

    Greatest fixpoint: start by assuming every function diverges, then
    repeatedly discharge any function with a completable path (a CFG path
    to a return that avoids calling/spawning still-suspect functions).
    What survives must, on every execution, invoke the surviving set —
    an unboundedly recursive task chain, i.e. a certain deadlock of the
    generated accelerator (the task queue fills with frames that can
    never retire).  The result is an under-approximation of real
    divergence, which is the sound direction for an error-severity rule:
    a function outside the set might still hang, but a function inside
    it can never complete.
    """
    functions = list(design.module.functions)
    #: spawn/call site -> the function it starts (None: a region spawn)
    callees = {site: spawn.callee for task in design.graph.tasks
               for site, spawn in task.spawns.items()}
    diverging: Set[Function] = set(functions)
    for _ in range(len(functions) + 1):
        discharged = [f for f in diverging
                      if _can_complete(f, diverging, callees, ranges)]
        if not discharged:
            break
        diverging.difference_update(discharged)
    return diverging


@rule("TAP-NET-004")
def _check_certain_deadlock(ctx: LintContext) -> List[Diagnostic]:
    diverging = diverging_functions(ctx.design, ctx.ranges)
    if not diverging:
        return []
    out: List[Diagnostic] = []
    reachable = ctx.reachable_functions()
    for function in sorted(diverging, key=lambda f: f.name):
        if ctx.entry is not None and function is ctx.entry:
            out.append(Diagnostic(
                code="TAP-NET-004", severity=SEVERITY_ERROR,
                message=(f"certain deadlock: every execution of entry "
                         f"'{function.name}' spawns a task chain that can "
                         f"never terminate; the accelerator will hang"),
                function=function.name,
                suggestion=("add a base case that returns without spawning "
                            "or calling into the recursion"),
                data={"entry": True},
            ))
        elif ctx.entry is not None:
            if reachable is None or function not in reachable:
                continue  # dead code: TAP-NET-002's business
            out.append(Diagnostic(
                code="TAP-NET-004", severity=SEVERITY_WARNING,
                message=(f"possible deadlock: task '{function.name}' can "
                         f"never complete once spawned, and it is reachable "
                         f"from entry '{ctx.entry.name}'"),
                function=function.name,
                suggestion=("add a base case that returns without spawning "
                            "or calling into the recursion"),
                data={"entry": False},
            ))
        else:
            # build gate: any host-offloadable function that can never
            # complete makes the design unshippable
            out.append(Diagnostic(
                code="TAP-NET-004", severity=SEVERITY_ERROR,
                message=(f"certain deadlock: task '{function.name}' can "
                         f"never complete once spawned"),
                function=function.name,
                suggestion=("add a base case that returns without spawning "
                            "or calling into the recursion"),
                data={"entry": None},
            ))
    return out


@rule("TAP-NET-005")
def _check_occupancy_bounds(ctx: LintContext) -> List[Diagnostic]:
    """Static task-queue occupancy bound.

    For tasks that are neither recursive nor spawned inside a loop, the
    number of simultaneously live instances is bounded by the static
    spawn sites, each weighted by its spawning task's own bound (the
    host contributes one invocation of the entry).  When that bound is
    below the provisioned queue depth the queue RAM is over-provisioned —
    useful slack for the resource reports.
    """
    graph = ctx.graph
    sizing = ctx.design.sizing
    # spawn/call sites targeting each task, caller task alongside
    sites: Dict[object, List[object]] = {task: [] for task in graph.tasks}
    for task in graph.tasks:
        for spawn in task.spawns.values():
            sites[spawn.target].append(task)

    bounds: Dict[object, Optional[int]] = {}

    def bound_of(task, trail: Tuple[object, ...] = ()) -> Optional[int]:
        if task in bounds:
            return bounds[task]
        if task in trail:
            return None  # spawn cycle: unbounded
        s = sizing[task]
        if s.recursive or s.spawned_in_loop:
            bounds[task] = None
            return None
        total = 0
        if task.kind == FUNCTION_ROOT and (
                ctx.entry is None or task.function is ctx.entry):
            total += 1  # one host invocation
        for caller in sites[task]:
            caller_bound = bound_of(caller, trail + (task,))
            if caller_bound is None:
                bounds[task] = None
                return None
            total += caller_bound
        bounds[task] = total
        return total

    out: List[Diagnostic] = []
    for task in graph.tasks:
        bound = bound_of(task)
        if not bound:
            continue
        depth = ctx.queue_depth_for(task)
        suggestion = None
        if depth > bound:
            suggestion = (f"a queue depth of {bound} suffices for this "
                          f"spawn structure (provisioned: {depth})")
        out.append(Diagnostic(
            code="TAP-NET-005",
            message=(f"task queue of '{task.name}' holds at most {bound} "
                     f"outstanding instance(s) (depth {depth})"),
            function=task.function.name,
            suggestion=suggestion,
            data={"task": task.name, "bound": bound, "queue_depth": depth},
        ))
    return out


@rule("TAP-WIDTH-001")
def _check_channel_widths(ctx: LintContext) -> List[Diagnostic]:
    """Spawn-channel payloads provably narrower than declared."""
    if ctx.ranges is None:
        return []
    out: List[Diagnostic] = []
    for task in ctx.graph.tasks:
        if not task.args:
            continue
        if ctx.entry is not None and task.kind == FUNCTION_ROOT \
                and task.function is ctx.entry:
            continue  # host-facing channel keeps its declared ABI width
        inferred = ctx.ranges.channel_bits(task)
        declared = [value.type.size_bytes * 8 for value in task.args]
        # a byte of payload is the smallest saving worth a wiring change
        if sum(declared) - sum(inferred) >= 8:
            out.append(Diagnostic(
                code="TAP-WIDTH-001",
                message=(f"spawn channel of '{task.name}' carries "
                         f"{sum(inferred)} useful bit(s) in a "
                         f"{sum(declared)}-bit payload"),
                function=task.function.name,
                data={"task": task.name, "inferred_bits": inferred,
                      "declared_bits": declared},
            ))
    return out


@rule("TAP-WIDTH-002")
def _check_cell_widths(ctx: LintContext) -> List[Diagnostic]:
    """Register/frame cells provably much narrower than their type."""
    if ctx.ranges is None:
        return []
    out: List[Diagnostic] = []
    cells = sorted(
        ctx.ranges.cell_ranges.items(),
        key=lambda item: (item[0].parent.parent.name
                          if item[0].parent is not None
                          and item[0].parent.parent is not None else "",
                          item[0].loc if item[0].loc is not None else -1,
                          item[0].name or ""))
    for alloca, interval in cells:
        declared = alloca.allocated_type
        if not isinstance(declared, IntType) or declared.bits <= 8:
            continue
        bits = bits_for(interval)
        if bits > declared.bits // 2:
            continue
        function = None
        if alloca.parent is not None and alloca.parent.parent is not None:
            function = alloca.parent.parent.name
        out.append(Diagnostic(
            code="TAP-WIDTH-002",
            message=(f"cell '{alloca.name}' only ever holds "
                     f"[{interval.lo}, {interval.hi}]: {bits} bit(s) of its "
                     f"{declared.bits}-bit type are live"),
            function=function, loc=alloca.loc,
            data={"cell": alloca.name or "", "lo": interval.lo,
                  "hi": interval.hi, "inferred_bits": bits,
                  "declared_bits": declared.bits},
        ))
    return out


@rule("TAP-WIDTH-003")
def _check_lossy_truncs(ctx: LintContext) -> List[Diagnostic]:
    """A trunc whose inferred source range does not fit the target type
    may silently wrap at runtime."""
    if ctx.ranges is None:
        return []
    out: List[Diagnostic] = []
    for function in ctx.module.functions:
        for block in function.blocks:
            for inst in block.instructions:
                if not isinstance(inst, Cast) or inst.kind != "trunc":
                    continue
                src = ctx.ranges.range_of(inst.operands[0])
                target = full_range(inst.type)
                if src is None or target is None:
                    continue
                if target.lo <= src.lo and src.hi <= target.hi:
                    continue
                out.append(Diagnostic(
                    code="TAP-WIDTH-003",
                    message=(f"trunc to {inst.type} may be lossy: the "
                             f"source range [{src.lo}, {src.hi}] does not "
                             f"fit [{target.lo}, {target.hi}]"),
                    function=function.name, loc=inst.loc,
                    data={"source_lo": src.lo, "source_hi": src.hi,
                          "target_bits": inst.type.bits},
                ))
    return out


# ---------------------------------------------------------------------------
# netlist-scope rules
# ---------------------------------------------------------------------------

@rule("TAP-NET-006", scope=SCOPE_NETLIST)
def _check_netlist_structure(ctx: LintContext) -> List[Diagnostic]:
    if ctx.accelerator is None:
        return []
    host = ctx.accelerator.network.host_spawn
    return verify_netlist(ctx.accelerator.sim, external=[host],
                          sources=[host])


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------

def _resolve_entry(module, entry) -> Optional[Function]:
    if entry is None or isinstance(entry, Function):
        return entry
    for function in module.functions:
        if function.name == entry:
            return function
    from repro.errors import AnalysisError

    raise AnalysisError(f"no function named {entry!r} in {module.name}")


def lint_design(design, entry=None, config=None,
                accelerator=None) -> DiagnosticReport:
    """Run every lint rule over ``design`` and return the report.

    ``entry`` (name or Function) designates the host-invocable function;
    without it the dead-task rule is skipped and deadlock verdicts harden
    to errors (any never-completing task blocks the build).  Passing
    ``accelerator`` additionally runs the netlist-scope rules on its
    elaborated simulator.
    """
    from repro.telemetry.spans import TRACER

    with TRACER.span("analysis.lint", category="analysis"):
        entry_fn = _resolve_entry(design.module, entry)
        ranges = infer_module_ranges(
            design.module, design=design,
            entry=entry_fn.name if entry_fn is not None else None)
        if config is None and accelerator is not None:
            config = accelerator.config
        ctx = LintContext(design=design, entry=entry_fn, config=config,
                          ranges=ranges, accelerator=accelerator)
        report = DiagnosticReport()
        for lint_rule in lint_rules():
            if lint_rule.scope == SCOPE_NETLIST and accelerator is None:
                continue
            report.extend(lint_rule.check(ctx))
        return report
