"""Structured diagnostics for the static-analysis stage.

Every analysis result is a :class:`Diagnostic`: a stable code, a severity,
a message, and whatever source provenance the frontend threaded onto the
IR (``Instruction.loc``). A :class:`DiagnosticReport` collects them and
renders either a human-readable listing or JSON for tooling.

Codes are namespaced like rustc lints:

==============  ========  ====================================================
code            severity  meaning
==============  ========  ====================================================
TAP-RACE-001    error     definite determinacy race: two parallel accesses
                          provably overlap and at least one writes
TAP-RACE-002    warning   possible determinacy race: the analysis cannot
                          prove the parallel accesses disjoint
TAP-MEM-001     info      a pointer could not be resolved to a base object;
                          dependence answers involving it are conservative
TAP-SYNC-001    warning   a spawn subtree is never joined by a sync on some
                          path (reserved; structural syncs are also checked
                          by the IR verifier)
TAP-NET-001     error     spawn-channel endpoint mismatch (return pointer or
                          argument type disagrees with the callee task)
TAP-NET-002     warning   dead task: a function's task unit is never spawned
                          or called from the designated entry
TAP-NET-003     varies    channel cycle through the spawn network; info when
                          the task queues are sized for recursion, warning
                          when the configured depth is below the sizing
                          pass's recommendation (under-buffered cycle)
TAP-NET-004     error     certain deadlock: every execution of the entry
                          must spawn an unboundedly recursive task chain
TAP-NET-005     info      static task-queue occupancy bound derived from the
                          spawn structure
TAP-NET-006     warning   netlist structure: dangling channel or component
                          unreachable from the host interface
TAP-WIDTH-001   info      spawn-channel payload provably narrower than its
                          declared width (channel narrowing opportunity)
TAP-WIDTH-002   info      register/frame cell provably narrower than its
                          declared type (datapath narrowing opportunity)
TAP-WIDTH-003   warning   possibly lossy trunc: the inferred source range
                          does not fit the target type
==============  ========  ====================================================

The ``TAP-NET-*`` / ``TAP-WIDTH-*`` rules are produced by the hardware
lint layer (:mod:`repro.analysis.lint`) on top of the value-range and
netlist analyses; ``repro lint`` is their CLI surface.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

SEVERITY_INFO = "info"
SEVERITY_WARNING = "warning"
SEVERITY_ERROR = "error"

_SEVERITY_RANK = {SEVERITY_INFO: 0, SEVERITY_WARNING: 1, SEVERITY_ERROR: 2}

#: registry of known diagnostic codes -> (default severity, short title)
CODES: Dict[str, Tuple[str, str]] = {
    "TAP-RACE-001": (SEVERITY_ERROR, "definite determinacy race"),
    "TAP-RACE-002": (SEVERITY_WARNING, "possible determinacy race"),
    "TAP-MEM-001": (SEVERITY_INFO, "unresolved pointer"),
    "TAP-SYNC-001": (SEVERITY_WARNING, "unjoined spawn subtree"),
}


def severity_rank(severity: str) -> int:
    return _SEVERITY_RANK.get(severity, 0)


@dataclass
class Diagnostic:
    """One analysis finding, with provenance.

    ``related`` lines carry the per-access detail (who reads, who writes,
    from which task/spawn site); ``suggestion`` is the "help:" line; ``data``
    holds machine-readable extras that survive into the JSON rendering;
    ``ops`` keeps the offending IR instructions for in-process consumers
    (the dynamic cross-validator) and is *not* serialized.
    """

    code: str
    message: str
    severity: str = ""
    function: Optional[str] = None
    loc: Optional[int] = None
    related: List[str] = field(default_factory=list)
    suggestion: Optional[str] = None
    data: Dict[str, object] = field(default_factory=dict)
    ops: tuple = ()

    def __post_init__(self):
        if not self.severity:
            self.severity = CODES.get(self.code, (SEVERITY_WARNING, ""))[0]

    def to_dict(self) -> dict:
        out = {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
        }
        if self.function is not None:
            out["function"] = self.function
        if self.loc is not None:
            out["line"] = self.loc
        if self.related:
            out["related"] = list(self.related)
        if self.suggestion is not None:
            out["suggestion"] = self.suggestion
        if self.data:
            out["data"] = dict(self.data)
        return out

    def render(self) -> str:
        where = ""
        if self.function is not None:
            where = f" [{self.function}"
            if self.loc is not None:
                where += f":{self.loc}"
            where += "]"
        lines = [f"{self.severity}[{self.code}]{where}: {self.message}"]
        lines.extend(f"    {line}" for line in self.related)
        if self.suggestion:
            lines.append(f"    help: {self.suggestion}")
        return "\n".join(lines)


class DiagnosticReport:
    """An ordered collection of diagnostics with severity accounting."""

    def __init__(self, diagnostics: Optional[List[Diagnostic]] = None):
        self.diagnostics: List[Diagnostic] = list(diagnostics or [])

    def add(self, diagnostic: Diagnostic) -> Diagnostic:
        self.diagnostics.append(diagnostic)
        return diagnostic

    def extend(self, diagnostics) -> "DiagnosticReport":
        self.diagnostics.extend(diagnostics)
        return self

    def __iter__(self):
        return iter(self.diagnostics)

    def __len__(self):
        return len(self.diagnostics)

    def count(self, severity: str) -> int:
        return sum(1 for d in self.diagnostics if d.severity == severity)

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == SEVERITY_ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == SEVERITY_WARNING]

    def fails(self, threshold: str) -> bool:
        """True if any diagnostic is at/above ``threshold`` severity."""
        bar = severity_rank(threshold)
        return any(severity_rank(d.severity) >= bar for d in self.diagnostics)

    def sorted(self) -> List[Diagnostic]:
        return sorted(
            self.diagnostics,
            key=lambda d: (-severity_rank(d.severity), d.code,
                           d.function or "", d.loc if d.loc is not None else -1))

    # -- renderers -----------------------------------------------------------

    def render_text(self, module_name: str = "") -> str:
        head = f"analysis of '{module_name}'" if module_name else "analysis"
        if not self.diagnostics:
            return f"{head}: clean (no findings)"
        lines = [f"{head}: {len(self.diagnostics)} finding(s)"]
        for diagnostic in self.sorted():
            lines.append(diagnostic.render())
        lines.append(
            f"{self.count(SEVERITY_ERROR)} error(s), "
            f"{self.count(SEVERITY_WARNING)} warning(s), "
            f"{self.count(SEVERITY_INFO)} note(s)")
        return "\n".join(lines)

    def render_json(self, module_name: str = "") -> str:
        payload = {
            "module": module_name,
            "summary": {
                "errors": self.count(SEVERITY_ERROR),
                "warnings": self.count(SEVERITY_WARNING),
                "notes": self.count(SEVERITY_INFO),
            },
            "diagnostics": [d.to_dict() for d in self.sorted()],
        }
        return json.dumps(payload, indent=2)
