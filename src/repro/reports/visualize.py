"""Visualisation helpers: task-graph DOT output and execution timelines.

Text-first (the repo runs headless): DOT for rendering elsewhere, and an
ASCII Gantt view of per-unit activity built from a simulation trace —
the Fig 1 "task graph execution" picture, regenerated from real runs.
"""

from __future__ import annotations

from typing import Dict, List

from repro.passes.taskgraph import TaskGraph
from repro.sim.trace import Trace


def task_graph_dot(graph: TaskGraph) -> str:
    """GraphViz DOT for a module's static task graph."""
    lines = [
        f'digraph "{graph.module.name}" {{',
        "  rankdir=TB;",
        '  node [shape=box, style=rounded];',
    ]
    for task in graph.tasks:
        label = (f"T{task.sid} {task.name}\\n"
                 f"{task.instruction_count()} insts, "
                 f"{task.memory_op_count()} mem ops")
        lines.append(f'  t{task.sid} [label="{label}"];')
    for task in graph.tasks:
        for edge in task.spawns.values():
            dest = edge.target
            if edge.is_call:
                lines.append(
                    f'  t{task.sid} -> t{dest.sid} [label="call", color=gray];')
            else:
                style = ' style=dashed' if dest is task else ""
                lines.append(
                    f'  t{task.sid} -> t{dest.sid} [label="spawn"{style}];')
    lines.append("}")
    return "\n".join(lines)


#: characters per timeline row
TIMELINE_WIDTH = 72


def execution_timeline(trace: Trace, total_cycles: int) -> str:
    """ASCII timeline: one row per task unit, one mark per event.

    ``s`` marks a spawn arriving at the unit, ``c`` a completed instance,
    ``*`` both in the same bucket — the paper's Fig 1 execution view.
    """
    if total_cycles <= 0:
        return "(empty run)"
    buckets: Dict[str, List[set]] = {}
    for event in trace.events:
        if event.kind not in ("spawn-in", "complete"):
            continue
        row = buckets.setdefault(event.source,
                                 [set() for _ in range(TIMELINE_WIDTH)])
        slot = min(TIMELINE_WIDTH - 1,
                   event.cycle * TIMELINE_WIDTH // max(1, total_cycles))
        row[slot].add(event.kind)

    lines = [f"cycles 0..{total_cycles}  "
             f"(s=spawn arrived, c=instance completed, *=both)"]
    label_width = max((len(s) for s in buckets), default=0)
    for source in sorted(buckets):
        cells = []
        for marks in buckets[source]:
            if len(marks) > 1:
                cells.append("*")
            elif "spawn-in" in marks:
                cells.append("s")
            elif "complete" in marks:
                cells.append("c")
            else:
                cells.append(".")
        lines.append(f"{source.ljust(label_width)} |{''.join(cells)}|")
    return "\n".join(lines)


def utilization_summary(stats: dict, total_cycles: int) -> str:
    """Per-unit tile utilisation from a RunResult's stats dict."""
    lines = [f"{'unit':<24} {'tiles':>5} {'completed':>9} {'avg util':>8}"]
    for name, unit in stats.get("units", {}).items():
        tiles = unit.get("tiles", [])
        if not tiles or total_cycles == 0:
            continue
        util = sum(t["busy_cycles"] for t in tiles) / (
            len(tiles) * total_cycles)
        lines.append(f"{name:<24} {len(tiles):>5} "
                     f"{unit.get('completed', 0):>9} {100 * util:>7.1f}%")
    return "\n".join(lines)
