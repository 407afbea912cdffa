"""Static analysis over the parallel IR (post Stage-1).

TAPAS synthesizes one accelerator per *static task graph*; a determinacy
race in the source program becomes a silicon-level data race between task
units sharing the cache. This package analyses the extracted task graph
*before* accelerator generation, on the may-happen-in-parallel windows of
:mod:`repro.passes.mhp` (which spawn subtrees overlap in time, from the
detach/sync structure — the same walk the task graph's MHP pairs use):

* :mod:`repro.analysis.memdep`  — affine memory-dependence / alias
  analysis over load/store/GEP chains, with per-function effect
  summaries so recursion (fib, mergesort) is handled.
* :mod:`repro.analysis.races`   — the determinacy-race detector that
  joins the two: MHP pairs whose footprints may alias with >=1 write.
* :mod:`repro.analysis.diagnostics` — structured diagnostics (codes,
  severities, source locations, text/JSON renderers).

A second, hardware-facing layer lints the design that would be generated
(surfaced as ``repro lint``):

* :mod:`repro.analysis.ranges`  — interprocedural value-range analysis
  with widening/narrowing; infers minimal bitwidths per value, register
  cell and spawn channel (drives the width-aware resource reports).
* :mod:`repro.analysis.netlist` — channel-graph verification of the
  elaborated component network (dangling channels, unreachable blocks,
  communication cycles and their aggregate buffering).
* :mod:`repro.analysis.lint`    — the rule registry joining the two:
  TAP-NET-* / TAP-WIDTH-* diagnostics, plus the build-gate hook.

A third layer predicts performance without running the simulator
(surfaced as ``repro predict`` and the ``static`` sweep evaluator):

* :mod:`repro.analysis.perf`      — the analytical throughput model:
  per-task initiation intervals and critical paths from the compiled
  DFGs, interprocedural work/span propagation over the spawn graph, and
  closed-form memory/network bounds; emits a predicted cycle count plus
  ranked bottlenecks in the stall-ledger vocabulary.
* :mod:`repro.analysis.perfcheck` — the cross-validation harness that
  scores those predictions against simulator runs (rank correlation,
  relative error, bottleneck-class agreement).
"""

from repro.analysis.diagnostics import (
    SEVERITY_ERROR,
    SEVERITY_INFO,
    SEVERITY_WARNING,
    Diagnostic,
    DiagnosticReport,
)
from repro.analysis.lint import LintRule, lint_design, lint_rules
from repro.analysis.netlist import build_channel_graph, verify_netlist
from repro.analysis.perf import (
    PerfModel,
    PredictedBottleneck,
    Prediction,
    TaskEstimate,
)
from repro.analysis.perfcheck import (
    CheckRecord,
    CheckReport,
    PerfChecker,
    bottleneck_class,
    spearman,
)
from repro.analysis.races import (
    RaceFinding,
    analyze_design,
    analyze_module,
    analyze_task_graph,
    find_races,
)
from repro.analysis.ranges import (
    Interval,
    ModuleRanges,
    bits_for,
    infer_design_ranges,
    infer_module_ranges,
)

__all__ = [
    "CheckRecord",
    "CheckReport",
    "Diagnostic",
    "DiagnosticReport",
    "Interval",
    "LintRule",
    "ModuleRanges",
    "PerfChecker",
    "PerfModel",
    "PredictedBottleneck",
    "Prediction",
    "RaceFinding",
    "TaskEstimate",
    "SEVERITY_ERROR",
    "SEVERITY_INFO",
    "SEVERITY_WARNING",
    "analyze_design",
    "analyze_module",
    "analyze_task_graph",
    "bits_for",
    "bottleneck_class",
    "build_channel_graph",
    "find_races",
    "infer_design_ranges",
    "infer_module_ranges",
    "lint_design",
    "lint_rules",
    "spearman",
    "verify_netlist",
]
