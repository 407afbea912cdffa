"""Text profile report: where the cycles went.

Renders an :class:`~repro.obs.Observer`'s ledgers into the evaluation's
Table III view — per-unit utilization, per-tile occupancy, the top stall
sources, channel backpressure, and a spawn/sync timeline summary from
the run's trace. The per-component rows are exact: busy + stall_in +
stall_out + idle always sums to the profiled cycle count.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

from repro.reports.tables import render_table
from repro.reports.visualize import execution_timeline
from repro.sim.component import OBS_BUSY, OBS_IDLE, OBS_STALL_IN, OBS_STALL_OUT


def _pct(part: int, total: int) -> str:
    return f"{100.0 * part / total:.1f}%" if total else "0.0%"


def _state_row(ledger, total: int):
    b = ledger.breakdown()
    return [ledger.name, ledger.cycles,
            _pct(b[OBS_BUSY], total), _pct(b[OBS_STALL_IN], total),
            _pct(b[OBS_STALL_OUT], total), _pct(b[OBS_IDLE], total)]


#: rows of the stall-source and channel tables
TOP_ROWS = 8


def render_profile_report(name: str, total_cycles: int, observer,
                          trace=None, stats: Optional[dict] = None) -> str:
    """The ``repro profile`` / ``repro run --profile`` text report."""
    sections = [f"Profile: {name} — {total_cycles} cycles "
                f"({observer.cycles_observed} profiled)"]

    units = [ledger for ledger in observer.component_ledgers()
             if ledger.name.startswith("T") and ":" in ledger.name]
    components = observer.component_ledgers()
    rows = [_state_row(ledger, ledger.cycles) for ledger in components]
    sections.append(render_table(
        ["component", "cycles", "busy", "stall_in", "stall_out", "idle"],
        rows, title="Cycle accounting (per component)"))

    tile_rows = []
    for unit in (units or components):
        for tile in observer.tile_ledgers(unit.name):
            tile_rows.append(_state_row(tile, tile.cycles))
    if tile_rows:
        sections.append(render_table(
            ["tile", "cycles", "busy", "stall_in", "stall_out", "idle"],
            tile_rows, title="Tile occupancy"))

    stall_rows = [[component, reason, cycles, _pct(cycles, total_cycles)]
                  for component, reason, cycles
                  in observer.stall_sources()[:TOP_ROWS]]
    if stall_rows:
        sections.append(render_table(
            ["component", "stall reason", "cycles", "% of run"],
            stall_rows, title="Top stall sources"))

    channel_rows = [[p.name, p.channel.total_pushed, p.channel.total_popped,
                     p.peak_depth, p.backpressure_cycles,
                     f"{p.mean_occupancy():.2f}"]
                    for p in observer.busiest_channels(TOP_ROWS)]
    if channel_rows:
        sections.append(render_table(
            ["channel", "pushed", "popped", "peak", "full cycles", "mean occ"],
            channel_rows, title="Channels (by backpressure)"))

    if trace is not None and len(trace):
        kinds = Counter(e.kind for e in trace.events)
        spawn_summary = ", ".join(f"{k}={n}" for k, n in sorted(kinds.items())
                                  if k in ("spawn-in", "spawn-issue", "complete",
                                           "suspend", "sync-resume", "sync-pass"))
        lines = ["Spawn/sync timeline:"]
        if spawn_summary:
            lines.append("  events: " + spawn_summary)
        per_unit = Counter(e.source for e in trace.events
                           if e.kind == "spawn-in")
        for source, count in sorted(per_unit.items()):
            first = min(e.cycle for e in trace.events
                        if e.source == source and e.kind == "spawn-in")
            done = [e.cycle for e in trace.events
                    if e.source == source and e.kind == "complete"]
            lines.append(f"  {source}: {count} spawns, first at cycle "
                         f"{first}" + (f", last completion at {max(done)}"
                                       if done else ""))
        sections.append("\n".join(lines))
        timeline = execution_timeline(trace, total_cycles)
        sections.append(timeline)

    if stats:
        cache = stats.get("cache")
        if cache and "hit_rate" in cache:
            sections.append(
                f"Memory: {cache.get('loads', 0)} loads, "
                f"{cache.get('stores', 0)} stores, "
                f"{100 * cache['hit_rate']:.1f}% L1 hit rate, "
                f"{cache.get('writebacks', 0)} writebacks")

    return "\n\n".join(sections)


def render_host_profile_report(name: str, profiler,
                               tracer=None) -> str:
    """The ``repro profile --host`` text report: where do host seconds
    go while the simulator runs this design?

    Ranks the compiled kernel's rows by host time -- component *classes*
    (every instance of e.g. ``Cache`` aggregated) and each task's
    instance loop -- then the engine-level phases (channel commit,
    observer, scheduling residual). The reference engines report wall
    time only. When a :class:`~repro.telemetry.spans.SpanTracer` is
    supplied, the toolchain phases around the simulation (parse/lower/
    generate/elaborate) are appended so compile time is visible next to
    sim time.
    """
    wall = profiler.wall_ns / 1e9
    sim = profiler.sim
    engine = "?"
    if sim is not None:  # the engine that ran, and why if not the asked one
        engine = sim.executed_engine
        if sim.compiled_fallback is not None:
            engine += f" (compiled declined: {sim.compiled_fallback})"
    sections = [f"Host profile: {name} — {wall:.3f}s simulator wall-clock, "
                f"engine={engine}"]

    def _share(seconds):
        return f"{100.0 * seconds / wall:.1f}%" if wall else "0.0%"

    rows = [[row["class"], f"{row['seconds']:.4f}", _share(row["seconds"])]
            for row in profiler.ranked_classes()]
    sections.append(render_table(
        ["component class", "seconds", "% wall"],
        rows, title="Host seconds by component class") if rows else
        f"No per-class attribution on the {engine} engine: wall time only.")

    phase_rows = [[phase, f"{seconds:.4f}", _share(seconds)]
                  for phase, seconds in sorted(profiler.phases().items(),
                                               key=lambda kv: -kv[1])]
    sections.append(render_table(
        ["phase", "seconds", "% wall"],
        phase_rows, title="Host seconds by engine phase"))

    # machine-greppable; the same fraction is in ``profiler.as_dict()``
    sections.append(
        f"attribution: measured_fraction={profiler.measured_fraction():.4f}")

    if tracer is not None and getattr(tracer, "spans", None):
        totals = tracer.phase_totals()
        span_rows = [[phase, f"{seconds:.4f}"]
                     for phase, seconds in sorted(totals.items(),
                                                  key=lambda kv: -kv[1])]
        if span_rows:
            sections.append(render_table(
                ["toolchain span", "seconds"], span_rows,
                title="Toolchain phases (host spans)"))

    return "\n\n".join(sections)
