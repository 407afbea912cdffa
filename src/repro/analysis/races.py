"""The determinacy-race detector: MHP x memory-dependence.

For every spawn site the MHP analysis yields three kinds of parallel
overlap (child vs. parent continuation, child vs. sibling subtree,
instance vs. instance of the same site). The detector intersects the
memory *footprints* of the two sides — direct loads/stores plus callee
effect summaries — and reports every pair that may touch overlapping
bytes with at least one write:

* a ``must``-alias pair is a **definite** race (``TAP-RACE-001``, error);
* a ``may``-alias pair is a **possible** race (``TAP-RACE-002``,
  warning) — the affine model could not prove disjointness (e.g.
  ``C[i*N+j]`` with symbolic ``N``, or a widened recursive summary).

Provenance (function, source lines, task sids, the spawn site's line) is
threaded onto each diagnostic, and the offending IR instructions ride
along on ``Diagnostic.ops`` so the dynamic checker can cross-validate a
simulation run against the static verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analysis.diagnostics import (
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    Diagnostic,
    DiagnosticReport,
)
from repro.analysis.memdep import (
    MAY,
    MUST,
    ROOT_UNKNOWN,
    MemEffect,
    PointerResolver,
    compare_effects,
    compute_summaries,
    effects_of_blocks,
)
from repro.ir.instructions import Detach
from repro.ir.module import Module
from repro.passes.mhp import SpawnContext, region_blocks, spawn_contexts
from repro.passes.taskgraph import TaskGraph

# Overlap kinds, in the order they are searched.
KIND_CONTINUATION = "child-vs-continuation"
KIND_SIBLING = "sibling-subtrees"
KIND_INSTANCES = "cross-instance"


@dataclass
class RaceFinding:
    """One conflicting parallel access pair, pre-diagnostic."""

    verdict: str              # MUST or MAY
    a: MemEffect              # the write (always a write)
    b: MemEffect              # the other access (read or write)
    kind: str
    function: str
    detach: Detach            # the spawn site creating the parallelism
    sibling: Optional[Detach] = None

    def pair_key(self) -> frozenset:
        """Identity of the conflicting access pair, order-insensitive."""
        return frozenset(
            (tuple(sorted(id(op) for op in self.a.ops)),
             tuple(sorted(id(op) for op in self.b.ops))))


def _check_pairs(side_a: List[MemEffect], side_b: List[MemEffect],
                 context_blocks, cross_instance_only: bool, kind: str,
                 ctx: SpawnContext, sibling: Optional[Detach],
                 findings: List[RaceFinding]):
    for ea in side_a:
        for eb in side_b:
            if not (ea.is_write or eb.is_write):
                continue
            if cross_instance_only and ea.ops == eb.ops and not ea.is_write:
                continue  # read vs itself across instances: not a conflict
            verdict = compare_effects(ea, eb, context_blocks,
                                      cross_instance_only)
            if verdict in (MUST, MAY):
                write, other = (ea, eb) if ea.is_write else (eb, ea)
                findings.append(RaceFinding(
                    verdict, write, other, kind, ctx.task.function.name,
                    ctx.detach, sibling))


def find_races(graph: TaskGraph) -> Tuple[List[RaceFinding], List[MemEffect]]:
    """All conflicting MHP access pairs of a task graph, plus the list of
    effects whose pointers could not be resolved (for TAP-MEM-001)."""
    module = graph.module
    summaries = compute_summaries(module)
    resolvers = {f: PointerResolver(f) for f in module.functions}
    findings: List[RaceFinding] = []
    unresolved: List[MemEffect] = []

    for ctx in spawn_contexts(graph):
        resolver = resolvers[ctx.task.function]
        spawned = effects_of_blocks(ctx.region, resolver, summaries)
        serial = effects_of_blocks(ctx.par_blocks, resolver, summaries)
        for effect in spawned + serial:
            if effect.expr.root_kind == ROOT_UNKNOWN and not effect.via:
                unresolved.append(effect)
        context = list(ctx.par_blocks) + list(ctx.region)

        _check_pairs(spawned, serial, context, False,
                     KIND_CONTINUATION, ctx, None, findings)
        for sibling in ctx.siblings:
            sib_region = region_blocks(sibling)
            sib_effects = effects_of_blocks(sib_region, resolver, summaries)
            _check_pairs(spawned, sib_effects, context + sib_region, False,
                         KIND_SIBLING, ctx, sibling, findings)
        if ctx.self_parallel:
            _check_pairs(spawned, spawned, context, True,
                         KIND_INSTANCES, ctx, None, findings)

    return _dedupe(findings), unresolved


def _dedupe(findings: List[RaceFinding]) -> List[RaceFinding]:
    """One finding per access pair; a MUST verdict beats a MAY for the
    same pair (the same pair often shows up as both sibling- and
    cross-instance overlap)."""
    best: Dict[frozenset, RaceFinding] = {}
    order: List[frozenset] = []
    for finding in findings:
        key = finding.pair_key()
        existing = best.get(key)
        if existing is None:
            best[key] = finding
            order.append(key)
        elif existing.verdict == MAY and finding.verdict == MUST:
            best[key] = finding
    return [best[key] for key in order]


# ---------------------------------------------------------------------------
# Findings -> diagnostics
# ---------------------------------------------------------------------------

_KIND_TEXT = {
    KIND_CONTINUATION: "the spawned task runs in parallel with its parent's "
                       "continuation",
    KIND_SIBLING: "two sibling spawn subtrees run in parallel",
    KIND_INSTANCES: "parallel instances of the same spawn site overlap",
}


def _access_desc(effect: MemEffect) -> str:
    op = effect.ops[0]
    what = "write to" if effect.is_write else "read of"
    desc = f"{what} {effect.expr.root_desc()}"
    if op.loc is not None:
        desc += f" at line {op.loc}"
    if effect.via:
        call = effect.via[-1]
        desc += f" (via call to @{call.callee.name}"
        if call.loc is not None:
            desc += f" at line {call.loc}"
        desc += ")"
    return desc


def _finding_to_diagnostic(finding: RaceFinding) -> Diagnostic:
    definite = finding.verdict == MUST
    code = "TAP-RACE-001" if definite else "TAP-RACE-002"
    root = finding.a.expr.root_desc()
    flavor = "definite" if definite else "possible"
    message = (f"{flavor} determinacy race on {root}: "
               f"{_KIND_TEXT[finding.kind]} and both touch it "
               f"({'write/write' if finding.b.is_write else 'read/write'})")
    related = [_access_desc(finding.a), _access_desc(finding.b)]
    spawn_line = finding.detach.loc
    spawn = "parallelism created by the spawn site"
    if spawn_line is not None:
        spawn += f" at line {spawn_line}"
    if finding.sibling is not None and finding.sibling.loc is not None:
        spawn += f" (sibling spawned at line {finding.sibling.loc})"
    related.append(spawn)
    if definite:
        suggestion = ("order the accesses with a sync, or make each parallel "
                      "instance touch a distinct location")
    else:
        suggestion = ("the affine analysis could not prove these disjoint; "
                      "if they are, this is a false positive — otherwise add "
                      "a sync or privatize the location")
    loc = finding.a.ops[0].loc
    return Diagnostic(
        code=code,
        message=message,
        severity=SEVERITY_ERROR if definite else SEVERITY_WARNING,
        function=finding.function,
        loc=loc,
        related=related,
        suggestion=suggestion,
        data={
            "kind": finding.kind,
            "verdict": finding.verdict,
            "root": root,
            "spawn_line": spawn_line,
            "write_lines": sorted({op.loc for op in finding.a.ops
                                   if op.loc is not None}),
            "other_lines": sorted({op.loc for op in finding.b.ops
                                   if op.loc is not None}),
        },
        ops=tuple(finding.a.ops) + tuple(finding.b.ops),
    )


def report_from_findings(findings: List[RaceFinding],
                         unresolved: List[MemEffect]) -> DiagnosticReport:
    report = DiagnosticReport()
    for finding in findings:
        report.add(_finding_to_diagnostic(finding))
    seen_ops = set()
    for effect in unresolved:
        op = effect.ops[0]
        if id(op) in seen_ops:
            continue
        seen_ops.add(id(op))
        report.add(Diagnostic(
            code="TAP-MEM-001",
            message="pointer could not be resolved to a base object; "
                    "dependence answers involving this access are "
                    "conservative",
            loc=op.loc,
            ops=(op,),
        ))
    return report


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def analyze_task_graph(graph: TaskGraph) -> DiagnosticReport:
    """Race analysis over an already-extracted task graph."""
    if not graph.mhp_pairs():
        return DiagnosticReport()  # fully serial: nothing can race
    findings, unresolved = find_races(graph)
    return report_from_findings(findings, unresolved)


def analyze_design(design) -> DiagnosticReport:
    """Race analysis of a :class:`~repro.accel.generator.GeneratedDesign`.

    Analysing the design (rather than re-lowering the module) guarantees
    the diagnostics reference the *same* instruction objects the
    simulator executes — which is what the dynamic cross-validator keys
    on."""
    from repro.telemetry.spans import TRACER

    with TRACER.span("analysis.races", category="analysis"):
        return analyze_task_graph(design.graph)


def analyze_module(module: Module, optimize: bool = True) -> DiagnosticReport:
    """Race analysis of a module, mirroring the generator's front half
    (verify, optimize, verify, extract)."""
    from repro.ir.verifier import verify_module
    from repro.passes.optimize import optimize_module
    from repro.passes.task_extraction import extract_tasks

    verify_module(module)
    if optimize:
        optimize_module(module)
        verify_module(module)
    return analyze_task_graph(extract_tasks(module))
