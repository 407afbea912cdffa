"""Command-line driver: ``python -m repro <command> ...``.

Subcommands mirror the toolchain stages:

* ``compile``   — source file -> printed parallel IR
* ``taskgraph`` — source file -> task-graph summary (or DOT with --dot)
* ``analyze``   — source file -> static race/dependence diagnostics
* ``lint``      — source file -> hardware lint: value ranges/bitwidths,
  spawn-network and netlist verification (TAP-NET-*/TAP-WIDTH-* rules)
* ``emit``      — source file -> Chisel-flavoured or Verilog RTL
* ``estimate``  — source file -> resources / fmax / power per board
* ``run``       — execute a registered workload and report cycles
* ``sweep``     — expand a workload × tiles × engine grid and run it
  through the parallel sweep runner (worker processes + the
  content-addressed result cache)
* ``predict``   — static performance prediction for a source file:
  predicted cycles + ranked bottlenecks from the analytical model,
  without running any simulation engine
* ``profile``   — run a source file under the cycle profiler (guest
  cycles), or under the host-time profiler with ``--host`` (where do
  host seconds go while simulating this design?)
* ``diff``      — run a source file under both simulation engines and
  fail unless cycle counts and stats are bit-identical
* ``history``   — the committed end-to-end ledger (``results/e2e/``):
  per PR and workload, each metric's change/parent ratio, marked where
  it is worse than its ``BENCHMARK.json`` bound
* ``workloads`` — list the paper's benchmark suite

Every command runs with the host-side span tracer enabled, so
``--trace-out`` exports carry the toolchain phases (parse -> lower ->
passes -> elaborate -> simulate) next to the guest cycle timeline.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.accel import (
    ARRIA_10,
    CYCLONE_V,
    AcceleratorConfig,
    build_accelerator,
    generate,
)
from repro.errors import LexError, TapasError
from repro.frontend import compile_source
from repro.ir import print_module
from repro.obs import Observer, export_chrome_trace
from repro.obs.perfetto import json_safe
from repro.reports import (
    estimate_mhz,
    estimate_resources,
    fpga_power_watts,
    render_host_profile_report,
    render_profile_report,
    render_table,
    task_graph_dot,
)
from repro.rtl import emit_design, emit_top_verilog
from repro.sim import DEFAULT_ENGINE, ENGINES, Trace
from repro.telemetry.spans import TRACER


def _load_module(path: str):
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        source = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise LexError(f"{path}: not UTF-8 at byte offset {exc.start}") \
            from None
    name = os.path.splitext(os.path.basename(path))[0]
    return compile_source(source, name)


def _entry_function(module, args):
    """The ``--entry`` function of a loaded source (default: its first)."""
    function = (module.function(args.entry) if args.entry
                else (module.functions[0] if module.functions else None))
    if function is None:
        raise TapasError("no entry function"
                         + (f" named {args.entry!r}" if args.entry else "")
                         + f" in {args.source}")
    return function


def cmd_compile(args) -> int:
    print(print_module(_load_module(args.source)))
    return 0


def cmd_taskgraph(args) -> int:
    design = generate(_load_module(args.source))
    if args.dot:
        print(task_graph_dot(design.graph))
    else:
        print(design.graph.describe())
    return 0


#: ``--fail-on`` spelling -> diagnostic severity ("note" is the render_text
#: name for info-severity findings)
_FAIL_ON = {"note": "info", "warning": "warning", "error": "error"}


def _report_exit(report, module_name: str, fmt: str, fail_on: str) -> int:
    """Shared ``analyze``/``lint`` tail: render, then exit 1 iff any
    diagnostic is at/above the ``--fail-on`` severity (0 otherwise)."""
    if fmt == "json":
        print(report.render_json(module_name))
    else:
        print(report.render_text(module_name))
    return 1 if report.fails(_FAIL_ON[fail_on]) else 0


def cmd_analyze(args) -> int:
    from repro.analysis import analyze_design

    module = _load_module(args.source)
    design = generate(module)
    report = analyze_design(design)
    return _report_exit(report, module.name, args.format, args.fail_on)


def cmd_lint(args) -> int:
    from repro.accel.accelerator import Accelerator
    from repro.analysis.lint import lint_design

    module = _load_module(args.source)
    design = generate(module)
    entry = args.entry or (module.functions[0].name if module.functions else None)
    config = AcceleratorConfig(default_ntiles=args.tiles,
                               analysis_level="none")
    if args.queue_depth:
        from repro.accel.config import TaskUnitParams

        config.unit_params = {
            task.name: TaskUnitParams(ntiles=args.tiles,
                                      queue_depth=args.queue_depth)
            for task in design.graph.tasks}
    accelerator = None
    if not args.no_netlist:
        # elaborate (but never run) the accelerator so the netlist-scope
        # rules can verify the real component/channel graph
        accelerator = Accelerator(design, config)
    report = lint_design(design, entry=entry, config=config,
                         accelerator=accelerator)
    return _report_exit(report, module.name, args.format, args.fail_on)


def cmd_emit(args) -> int:
    design = generate(_load_module(args.source))
    if args.language == "verilog":
        print(emit_top_verilog(design))
    else:
        print(emit_design(design))
    return 0


def cmd_estimate(args) -> int:
    module = _load_module(args.source)
    config = AcceleratorConfig(default_ntiles=args.tiles)
    accel = build_accelerator(module, config)
    report = estimate_resources(accel, include_cache=args.include_cache,
                                width_aware=args.width_aware)
    rows = []
    for board in (CYCLONE_V, ARRIA_10):
        mhz = estimate_mhz(board, report.alms)
        watts = fpga_power_watts(report.alms, report.brams, mhz)
        rows.append([board.name, report.alms, report.regs, report.brams,
                     round(mhz, 1), round(watts, 2),
                     round(report.chip_percent(board.alm_capacity), 1)])
    print(render_table(
        ["Board", "ALMs", "Regs", "BRAM", "MHz", "Power W", "%Chip"],
        rows, title=f"Estimate for {module.name} ({args.tiles} tiles/unit)"))
    print("\nALM breakdown:", report.breakdown())
    return 0


def _write_stats_json(path: str, workload_name: str, config, cycles: int,
                      stats: dict, observer=None, extra=None,
                      host_profile=None):
    """The ``--stats-json`` document: the BENCH_*.json record schema,
    plus the run's ``stats`` dump and the optional host-profile block."""
    from repro.reports.benchjson import (
        bench_record,
        utilization_from_stats,
    )

    utilization = None
    stalls = None
    if observer is not None:
        utilization = {ledger.name: round(ledger.utilization(), 4)
                       for ledger in observer.component_ledgers()}
        stalls = observer.stall_breakdown()
    if utilization is None:
        utilization = utilization_from_stats(stats, cycles) or None
    record = bench_record(workload_name, config=config, cycles=cycles,
                          utilization=utilization, stalls=stalls,
                          engine=stats, **(extra or {}))
    record["stats"] = json_safe(stats)
    if host_profile is not None:
        record["host_profile"] = host_profile
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1)
        handle.write("\n")
    return record


def _instrumented(args):
    """Build (trace, observer) when any observability flag is set."""
    if args.trace_out or args.stats_json or args.profile:
        return Trace(enabled=True), Observer()
    return None, None


def cmd_run(args) -> int:
    from repro.workloads import REGISTRY

    workload = REGISTRY.get(args.workload)
    config = workload.default_config(
        ntiles=args.tiles if args.tiles else None, engine=args.engine)

    if args.check_repro:
        # zero-cost-when-disabled invariant, checked at the CLI level:
        # the same workload with full instrumentation on and off must
        # report identical cycle counts (the simulator has no hidden
        # seed, so any divergence is an instrumentation perturbation).
        plain = workload.run(config=config, scale=args.scale)
        instrumented = workload.run(config=config, scale=args.scale,
                                    trace=Trace(enabled=True),
                                    observer=Observer())
        if plain.cycles != instrumented.cycles:
            print(f"error: {workload.name}: instrumentation changed the "
                  f"cycle count ({plain.cycles} plain vs "
                  f"{instrumented.cycles} instrumented)", file=sys.stderr)
            return 1
        print(f"{workload.name}: reproducible, {plain.cycles} cycles with "
              f"observability off and on")

    trace, observer = _instrumented(args)
    result = workload.run(config=config, scale=args.scale, trace=trace,
                          observer=observer)
    status = "OK" if result.correct else "WRONG RESULT"
    print(f"{workload.name}: {status}, {result.cycles} cycles for "
          f"{result.work_items} work items "
          f"({result.cycles_per_item:.1f} cycles/item)")
    if args.profile:
        print()
        print(render_profile_report(workload.name, result.cycles, observer,
                                    trace=trace, stats=result.stats))
    trace_ok = _export_trace(args.trace_out, observer, trace)
    if args.stats_json:
        _write_stats_json(args.stats_json, workload.name, config,
                          result.cycles, result.stats, observer=observer,
                          extra={"work_items": result.work_items,
                                 "correct": result.correct})
        print(f"stats written to {args.stats_json}")
    return 0 if result.correct and trace_ok else 1


def _export_trace(path, observer, trace) -> bool:
    """Write the Perfetto file ``--trace-out`` names (if any) and check
    it; print each problem and return False when it is malformed."""
    from repro.obs import validate_chrome_trace

    if not path:
        return True
    document = export_chrome_trace(path, observer=observer, trace=trace,
                                   host_spans=TRACER)
    print(f"trace written to {path}")
    problems = validate_chrome_trace(document)
    for problem in problems[:10]:
        print(f"error: {path}: {problem}", file=sys.stderr)
    if len(problems) > 10:
        print(f"error: {path}: ... {len(problems) - 10} more", file=sys.stderr)
    return not problems


def _int(flag: str, text: str) -> int:
    """``text`` as an integer, or a one-line error naming ``flag``."""
    try:
        return int(text)
    except ValueError:
        raise TapasError(f"{flag}: {text!r} is not an integer") from None


def _parse_scales(default: int, spec: str, names):
    """``--scales fibonacci=2,saxpy=8`` → per-workload scale map."""
    if not spec:
        return default
    scales = {name: default for name in names}
    for part in spec.split(","):
        name, sep, value = part.partition("=")
        if not sep or name not in scales:
            raise TapasError(
                f"bad --scales entry {part!r} (expected <workload>=<int> "
                f"with workload in {sorted(scales)})")
        scales[name] = _int("--scales", value)
    return scales


def cmd_sweep(args) -> int:
    from repro.exp import ResultCache, SweepRunner, progress_printer, workload_points
    from repro.reports.benchjson import sweep_record, write_bench_json
    from repro.workloads import REGISTRY

    names = (REGISTRY.names() if args.workloads == "all"
             else args.workloads.split(","))
    for name in names:
        REGISTRY.get(name)  # fail fast on typos, before any fan-out
    tiles = [_int("--tiles", t) for t in args.tiles.split(",")]
    engines = args.engines.split(",")
    scales = _parse_scales(args.scale, args.scales, names)
    points = workload_points(names, tiles=tiles, scales=scales,
                             engines=engines, evaluator=args.evaluator)

    cache = None if args.no_cache else ResultCache(args.cache_dir)
    progress = progress_printer() if sys.stderr.isatty() else None
    runner = SweepRunner(jobs=args.jobs, cache=cache, progress=progress)
    result = runner.run(points)

    rows = []
    for record in result.records:
        spec = record["spec"]
        engine = spec["engine"]
        if record["status"] == "ok":
            value = record["value"]
            outcome = value["cycles"]
            engine = value.get("engine") or engine
        else:
            outcome = f"ERROR: {record['error']['type']}"
        rows.append([spec["workload"], spec["tiles"], engine,
                     spec["scale"], outcome,
                     "hit" if record["cache_hit"] else "miss",
                     round(record["seconds"], 3)])
    summary = result.summary
    print(render_table(
        ["Workload", "Tiles", "Engine", "Scale", "Cycles", "Cache", "s"],
        rows,
        title=f"Sweep: {summary['points']} points, {summary['jobs']} "
              f"job(s), {summary['wall_seconds']:.2f}s wall, "
              f"{summary['cache_hits']} cache hit(s), "
              f"{summary['errors']} error(s)"))
    if args.out:
        records = [
            sweep_record(record, record["spec"]["workload"],
                         config={"ntiles": record["spec"]["tiles"],
                                 "engine": record["spec"]["engine"],
                                 "scale": record["spec"]["scale"]})
            for record in result.records]
        write_bench_json(args.out, "sweep", records, sweep=summary)
        print(f"results written to {args.out}")
    return 1 if summary["errors"] else 0


def _default_profile_args(function, memory, size: int):
    """Synthesise deterministic entry arguments for ``repro profile``.

    Pointer parameters get ``size``-element arrays (integer arrays are
    filled with ``size`` so length-through-memory idioms stay in bounds,
    float arrays with a small ramp); integer scalars get ``size``; float
    scalars get 2.0.
    """
    from repro.ir.types import FloatType, PointerType

    if size < 0:
        raise TapasError(f"--size must be >= 0, got {size}")
    args = []
    for arg in function.arguments:
        type_ = arg.type
        if isinstance(type_, PointerType):
            if isinstance(type_.pointee, FloatType):
                values = [0.5 * i for i in range(size)]
            else:
                values = [size] * size
            args.append(memory.alloc_array(type_.pointee, values))
        elif isinstance(type_, FloatType):
            args.append(2.0)
        else:
            args.append(size)
    return args


def cmd_predict(args) -> int:
    """Static performance prediction — no engine, no run."""
    from repro.analysis.perf import PerfModel
    from repro.memory.backing import MainMemory

    module = _load_module(args.source)
    function = _entry_function(module, args)

    config = AcceleratorConfig(default_ntiles=args.tiles)
    model = PerfModel(module, config=config)
    entry_args = _default_profile_args(function, MainMemory(), args.size)
    prediction = model.predict(entry=function.name, config=config,
                               args=entry_args, size=args.size)

    if args.format == "json":
        payload = prediction.as_dict()
        payload["source"] = args.source
        payload["tiles"] = args.tiles
        payload["size"] = args.size
        text = json.dumps(payload, indent=1)
    else:
        text = prediction.render_text()
    print(text)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(json.dumps(prediction.as_dict(), indent=1) + "\n")
        print(f"prediction written to {args.out}")
    return 0


def cmd_profile(args) -> int:
    module = _load_module(args.source)
    function = _entry_function(module, args)

    config = AcceleratorConfig(default_ntiles=args.tiles, engine=args.engine)
    trace = Trace(enabled=True)
    observer = Observer()
    accel = build_accelerator(module, config, trace=trace, observer=observer)
    profiler = accel.sim.enable_host_profile() if args.host else None
    entry_args = _default_profile_args(function, accel.memory, args.size)
    result = accel.run(function.name, entry_args)

    label = f"{module.name}:{function.name}"
    if profiler is not None:
        print(render_host_profile_report(label, profiler, tracer=TRACER))
    else:
        print(render_profile_report(label, result.cycles, observer,
                                    trace=trace, stats=result.stats))
    if result.retval is not None:
        print(f"\nreturn value: {result.retval}")
    trace_ok = _export_trace(args.trace_out, observer, trace)
    if args.stats_json:
        _write_stats_json(args.stats_json, label, config, result.cycles,
                          result.stats, observer=observer,
                          host_profile=(profiler.as_dict()
                                        if profiler is not None else None))
        print(f"stats written to {args.stats_json}")
    return 0 if trace_ok else 1


def _first_movement_divergence(base_log, other_log, base_name, other_name,
                               drivers):
    """First cycle where two movement logs disagree, described as the
    channels (with their driving components) that moved under only one
    engine. None when the logs are identical (the divergence is then in
    stats only)."""
    base, other = dict(base_log), dict(other_log)

    def _fmt(names):
        return ", ".join(
            name + (f" (driven by {drivers[name]})" if name in drivers
                    else "")
            for name in sorted(names))

    for cycle in sorted(set(base) | set(other)):
        moved_base = set(base.get(cycle, ()))
        moved_other = set(other.get(cycle, ()))
        if moved_base == moved_other:
            continue
        parts = []
        if moved_base - moved_other:
            parts.append(f"{_fmt(moved_base - moved_other)} moved under "
                         f"{base_name} only")
        if moved_other - moved_base:
            parts.append(f"{_fmt(moved_other - moved_base)} moved under "
                         f"{other_name} only")
        return cycle, "; ".join(parts)
    return None


#: ``repro diff`` default: every engine, the dense oracle leading — it is
#: the reference the others' bit-identity contract is defined against
_DIFF_ENGINES = ("dense",) + tuple(e for e in ENGINES if e != "dense")


def cmd_diff(args) -> int:
    """Differential run: every engine against the dense oracle on one
    source file.

    The event and compiled engines' contract is bit-identical cycle
    counts and architectural stats against the dense oracle; this
    command checks it end to end on an arbitrary ``.cilk`` source (tier-1
    runs the same matrix on ``examples/programs/``). On divergence it
    walks the per-cycle channel-movement logs of both runs and reports
    the first cycle the engines disagree on, naming the channel(s) and
    the component driving them.
    """
    from repro.analysis.netlist import build_channel_graph

    module = _load_module(args.source)
    function = _entry_function(module, args)
    engines = ([e.strip() for e in args.engines.split(",") if e.strip()]
               if args.engines else _DIFF_ENGINES)
    unknown = [e for e in engines if e not in ENGINES]
    if unknown or len(engines) < 2:
        print(f"error: --engines needs >= 2 of {', '.join(ENGINES)}",
              file=sys.stderr)
        return 1

    outcomes = {}
    logs = {}
    for engine in engines:
        config = AcceleratorConfig(default_ntiles=args.tiles, engine=engine)
        accel = build_accelerator(module, config)
        logs[engine] = accel.sim.enable_movement_log()
        entry_args = _default_profile_args(function, accel.memory, args.size)
        result = accel.run(function.name, entry_args)
        stats = dict(result.stats)
        stats.pop("engine", None)  # host-side numbers legitimately differ
        outcomes[engine] = (result.cycles, result.retval, stats)
    drivers = {}  # channel name -> its first declared producer's name
    for channel, producers in build_channel_graph(accel.sim).producers.items():
        if channel is not None:
            drivers.setdefault(channel.name, producers[0].name)

    baseline = engines[0]
    label = f"{module.name}:{function.name}"
    failed = False
    for engine in engines[1:]:
        if outcomes[engine] == outcomes[baseline]:
            continue
        failed = True
        base, other = outcomes[baseline], outcomes[engine]
        where = _first_movement_divergence(
            logs[baseline], logs[engine], baseline, engine, drivers)
        detail = (f"; first divergent cycle {where[0]}: {where[1]}"
                  if where else "; channel movement identical "
                                "(stats-only divergence)")
        print(f"error: {label}: {baseline} vs {engine} diverge "
              f"({baseline} {base[0]} cycles, {engine} {other[0]} cycles"
              + ("" if base[1:] == other[1:] else "; retval/stats differ")
              + ")" + detail, file=sys.stderr)
    if failed:
        return 1
    print(f"{label}: engines agree ({', '.join(engines)}), "
          f"{outcomes[baseline][0]} cycles "
          f"(retval {outcomes[baseline][1]!r})")
    return 0


def cmd_history(_args) -> int:
    """The committed ledger as PR pairs; exit 1 if any ratio is marked."""
    from repro.telemetry.history import LEDGER_DIR, ledger_history

    declaration, documents, rows = ledger_history()
    metrics = [m["name"] for m in declaration["end_to_end"]]
    table = [[f"PR {row['pr']}", row["parent"], row["workload"]]
             + [f"{row['ratios'][m]:.3f}" + (" !" if m in row["marked"]
                                              else "")
                for m in metrics]
             for row in rows]
    marked = sum(len(row["marked"]) for row in rows)
    print(render_table(
        ["PR", "Parent", "Workload"] + metrics, table,
        title=f"{LEDGER_DIR}: {documents} document(s), "
              f"{len({row['change'] for row in rows})} PR pair(s); "
              f"ratio = change / parent"))
    print(f"{marked} ratio(s) marked ! (worse than the BENCHMARK.json "
          f"bound)")
    return 1 if marked else 0


def cmd_workloads(_args) -> int:
    from repro.workloads import REGISTRY

    rows = [[w.name, w.challenge, w.memory_pattern, w.paper_tiles]
            for w in REGISTRY.all()]
    print(render_table(["Name", "HLS challenge", "Memory", "Tiles (Table IV)"],
                       rows, title="Benchmark suite (paper Table II)"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TAPAS reproduction toolchain (MICRO 2018)")
    sub = parser.add_subparsers(dest="command", required=True)

    def shared(*parents):
        """Arguments several subcommands take, declared once."""
        return argparse.ArgumentParser(add_help=False, parents=parents)

    source = shared()
    source.add_argument("source")
    entry = shared(source)
    entry.add_argument("--entry",
                       help="entry function (default: first function)")
    entry.add_argument("--tiles", type=int, default=1)
    sized = shared(entry)
    sized.add_argument("--size", type=int, default=12,
                       help="synthesized input size / scalar value (default 12)")
    report = shared()
    report.add_argument("--format", choices=["text", "json"], default="text")
    report.add_argument("--fail-on", choices=["note", "warning", "error"],
                        default="error",
                        help="exit 1 if any diagnostic at or above this "
                             "severity is reported, 0 otherwise")
    outputs = shared()
    outputs.add_argument("--trace-out", metavar="FILE",
                         help="write a Perfetto/chrome://tracing JSON trace")
    outputs.add_argument("--stats-json", metavar="FILE",
                         help="write cycles/utilization/stall stats as JSON")
    engine = shared()
    engine.add_argument("--engine", choices=list(ENGINES),
                        default=DEFAULT_ENGINE,
                        help=f"simulation kernel (default: {DEFAULT_ENGINE})")

    p = sub.add_parser("compile", parents=[source],
                       help="print the parallel IR for a source file")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("taskgraph", parents=[source],
                       help="show the extracted task graph")
    p.add_argument("--dot", action="store_true", help="emit GraphViz DOT")
    p.set_defaults(func=cmd_taskgraph)

    p = sub.add_parser("analyze", parents=[source, report],
                       help="static determinacy-race / dependence analysis")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser(
        "lint", parents=[entry, report],
        help="hardware lint: bitwidth inference + netlist verification")
    p.add_argument("--queue-depth", type=int, default=0,
                   help="override every task-queue depth (exercises the "
                        "cycle-buffering rule)")
    p.add_argument("--no-netlist", action="store_true",
                   help="design-scope rules only; skip elaborating the "
                        "component netlist")
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser("emit", parents=[source], help="emit generated RTL")
    p.add_argument("--language", choices=["chisel", "verilog"],
                   default="chisel")
    p.set_defaults(func=cmd_emit)

    p = sub.add_parser("estimate", parents=[source],
                       help="resource/fmax/power estimate")
    p.add_argument("--tiles", type=int, default=1)
    p.add_argument("--include-cache", action="store_true")
    p.add_argument("--width-aware", action="store_true",
                   help="size integer datapaths and Args RAM by the "
                        "inferred value ranges instead of declared widths")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("run", parents=[outputs, engine],
                       help="run a registered workload")
    p.add_argument("workload")
    p.add_argument("--tiles", type=int, default=0)
    p.add_argument("--scale", type=int, default=1)
    p.add_argument("--profile", action="store_true",
                   help="print the cycle-accounting profile report")
    p.add_argument("--check-repro", action="store_true",
                   help="run twice (observability off and on) and fail if "
                        "cycle counts diverge")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser(
        "sweep",
        help="run a workload/tiles/engine grid through the sweep runner")
    p.add_argument("--workloads", default="all",
                   help="comma-separated workload names, or 'all' "
                        "(default: all)")
    p.add_argument("--tiles", default="1",
                   help="comma-separated tile counts (default: 1)")
    p.add_argument("--evaluator", choices=["workload", "static"],
                   default="workload",
                   help="who computes each point: the simulator "
                        "(workload) or the analytical model (static)")
    p.add_argument("--engines", default=DEFAULT_ENGINE,
                   help=f"comma-separated engines (default: {DEFAULT_ENGINE})")
    p.add_argument("--scale", type=int, default=1,
                   help="problem scale applied to every workload")
    p.add_argument("--scales", default="",
                   help="per-workload overrides, e.g. fibonacci=2,saxpy=8")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes (default: 1, inline)")
    p.add_argument("--cache-dir", metavar="DIR",
                   help="result-cache root (default: $REPRO_CACHE_DIR "
                        "or ~/.cache/repro)")
    p.add_argument("--no-cache", action="store_true",
                   help="recompute every point, read/write no cache")
    p.add_argument("--out", metavar="FILE",
                   help="write the schema-5 results document as JSON "
                        "(records + sweep summary + telemetry)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "predict", parents=[entry],
        help="static performance prediction (no simulation run)")
    p.add_argument("--size", type=int, default=12,
                   help="synthetic input size (pointer args get arrays "
                        "of this length; also the fallback trip count)")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--out", metavar="FILE",
                   help="also write the prediction JSON to FILE")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("profile", parents=[sized, outputs, engine],
                       help="run a source file under the cycle profiler")
    p.add_argument("--host", action="store_true",
                   help="profile the host time the simulator spends per "
                        "component class instead of the guest cycles")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("diff", parents=[sized],
                       help="check the simulation engines agree bit-exactly")
    p.add_argument("--engines", metavar="A,B[,C]",
                   help="engines to compare, first is the baseline "
                        f"(default: {','.join(_DIFF_ENGINES)})")
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser(
        "history",
        help="committed end-to-end ledger: change/parent ratio per PR, "
             "marked beyond the BENCHMARK.json bounds")
    p.set_defaults(func=cmd_history)

    p = sub.add_parser("workloads", help="list the benchmark suite")
    p.set_defaults(func=cmd_workloads)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # host-side pipeline tracing is on for every CLI invocation: a few
    # spans per toolchain phase, exported by --trace-out alongside the
    # guest cycle timeline (reset keeps repeated in-process main() calls
    # — the test suite — from accumulating spans across commands)
    TRACER.reset()
    TRACER.enable()
    try:
        return args.func(args)
    except (TapasError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
