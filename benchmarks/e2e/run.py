#!/usr/bin/env python3
"""End-to-end ledger: six workloads from source text to report.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N]
        [--seconds S] [--trace [0|1]] [--out FILE] [--spans-out DIR]
        [--smoke] [--selfcheck]

With ``--workload`` this is the command ``BENCHMARK.json`` declares: one
workload, and the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` — every
``end_to_end`` metric with ``--trace 0``, every ``per_layer`` metric
with ``--trace 1``. Without it the whole suite runs (untraced, plus the
traced run when ``--trace`` is given) and every metric is printed by
name with its unit.

This process never imports ``repro``. Each workload runs in fresh child
processes (so ``setup_s`` and ``peak_rss_mb`` are per workload) whose
``HOME``, ``REPRO_CACHE_DIR`` and ``REPRO_HISTORY_DIR`` point into a
private scratch directory under ``.bench_e2e/`` at the checkout root,
removed when the workload ends: nothing touches ``~/.cache/repro`` or
``results/``. See README.md beside this file for the metric tables.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SCRATCH = ROOT / ".bench_e2e"
DECLARATION = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARATION["workloads"]]
END_TO_END = {m["name"]: m for m in DECLARATION["end_to_end"]}
PER_LAYER = {m["name"]: m for m in DECLARATION["per_layer"]}
#: per-layer metrics in these units are counts made by the program and
#: must repeat exactly from pass to pass and from run to run
EXACT_UNITS = ("count", "bytes", "cycles")
#: fresh set-ups per untraced run; ``setup_s`` is their median
SETUP_SAMPLES = 3
MIN_PASSES = 3
CHILD_TIMEOUT_S = 170


def percentile(ordered: List[float], share: float) -> float:
    """Nearest-rank percentile of an already sorted list."""
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


# ---------------------------------------------------------------------------
# child: one workload, in a fresh process
# ---------------------------------------------------------------------------

def judge(reference: Dict[str, dict], passes) -> Dict[str, Any]:
    """Count failed ops: not ok, or not equal to the first pass."""
    attempted = failed = 0
    failures: List[str] = []
    for index, result in enumerate(passes):
        for op, outcome in result.outcomes.items():
            attempted += 1
            if outcome.get("ok") and outcome == reference.get(op):
                continue
            failed += 1
            if len(failures) < 5:
                why = outcome.get("error") or (
                    "not ok" if not outcome.get("ok")
                    else "differs from the first pass")
                failures.append(f"pass {index} {op}: {why}")
    return {"attempted": attempted, "failed": failed, "failures": failures}


def passes_for(run, seconds: float, at_least: int) -> list:
    """Closed loop: start another pass until ``seconds`` have elapsed."""
    passes = []
    deadline = perf_counter() + seconds
    while len(passes) < at_least or perf_counter() < deadline:
        # garbage of one pass is not the next one's to collect mid-op,
        # and peak memory should not depend on how many passes fit
        gc.collect()
        passes.append(run())
    return passes


def peak_rss_mib() -> float:
    """This process plus its largest waited-for child (a pool worker)."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def measure(bench, warm, spec) -> Dict[str, Any]:
    """Tracing off: timed passes -> every end-to-end metric but setup_s."""
    at_least = 2 if spec["smoke"] else MIN_PASSES
    passes = passes_for(bench.run_pass, spec["seconds"], at_least)
    latencies = sorted(t for p in passes for t in p.scaled)
    doc = judge(warm.outcomes, [warm] + passes)
    doc["metrics"] = {
        "wall_s": statistics.median(p.scaled_wall for p in passes),
        "work_per_s": statistics.median(p.work / p.scaled_wall
                                        for p in passes),
        "op_p50_s": percentile(latencies, 0.50),
        "op_p90_s": percentile(latencies, 0.90),
        "peak_rss_mb": peak_rss_mib(),
    }
    native = {"cycles": "sim_cycles_per_host_s", "programs": "programs_per_s",
              "points": "points_per_s"}[bench.work_unit]
    doc["detail"] = {
        # as the clock on the wall read, host drift included
        "raw_wall_s": statistics.median(p.wall for p in passes),
        "raw_" + native: statistics.median(p.work / p.wall for p in passes),
        "host_slowdown": statistics.median(p.wall / p.scaled_wall
                                           for p in passes),
        "sim_cycles": warm.sim_cycles,
        "failed_op_share": doc["failed"] / doc["attempted"],
        "passes": len(passes),
        "op_samples": len(latencies),
        "jobs": bench.jobs,
    }
    return doc


def trace(bench, warm, spec, started: Dict[str, float]) -> Dict[str, Any]:
    """Base passes, traced passes and the side measurements -> every
    per-layer metric (0 for a layer the workload never enters)."""
    from spans import NULL, Tracer

    def traced_pass():
        tracer = Tracer()
        return tracer, bench.trace_pass(tracer)

    quarter = spec["seconds"] / 4.0
    base = passes_for(bench.base_pass, quarter, 1 if spec["smoke"] else 2)
    traced = passes_for(traced_pass, quarter, 1)
    bench.tracer = NULL
    base_wall = statistics.median(p.scaled_wall for p in base)
    extras = bench.extras(base)

    per_pass = []
    for tracer, result in traced:
        layers = {name + "_s": seconds
                  for name, seconds in tracer.self_times().items()
                  if not name.startswith("harness.")}
        row = dict(tracer.counts)
        row.update(layers)
        row["trace.coverage"] = sum(layers.values()) / result.wall
        per_pass.append(row)
    doc = judge(warm.outcomes, [warm] + base + [r for _t, r in traced])
    names = sorted(set().union(*per_pass))
    undeclared = sorted(set(names).union(extras) - set(PER_LAYER))
    if undeclared:
        raise SystemExit(f"metrics missing from BENCHMARK.json: {undeclared}")
    measured = {}
    for name in names:
        values = [row.get(name, 0) for row in per_pass]
        if PER_LAYER[name]["unit"] not in EXACT_UNITS:
            measured[name] = statistics.median(values)
            continue
        measured[name] = values[0]
        if len(set(values)) > 1:
            doc["failed"] += 1
            doc["failures"].append(
                f"{name} differs between traced passes: {values}")
    measured.update(extras)
    measured["trace.overhead_ratio"] = statistics.median(
        r.scaled_wall for _t, r in traced) / base_wall
    measured["setup.import_s"] = started["import_s"]
    measured["setup.first_pass_s"] = started["first_pass_s"]
    measured["exp.code_fingerprint_s"] = started["fingerprint_s"]
    if measured.get("sim.ticks_executed"):
        stepping = (measured.get("sim.run_s", 0)
                    + measured.get("obs.observed_run_s", 0))
        measured["sim.host_us_per_tick"] = (
            1e6 * stepping / measured["sim.ticks_executed"])
    if "obs.plain_run_s" in measured:
        measured["obs.observer_slowdown"] = (
            measured["obs.observed_run_s"] / measured["obs.plain_run_s"])
    doc["metrics"] = {name: measured.get(name, 0) for name in PER_LAYER}
    doc["detail"] = {"base_passes": len(base), "traced_passes": len(traced),
                     "base_wall_s": base_wall}
    if spec.get("spans_out"):
        spans = [{"pass": index, "name": name, "start": start, "end": end,
                  "parent": parent, "op": op}
                 for index, (tracer, _r) in enumerate(traced)
                 for name, start, end, parent, op in tracer.spans]
        Path(spec["spans_out"]).write_text(json.dumps(spans))
    return doc


def child_main(spec: Dict[str, Any]) -> int:
    """Set up (imports, inputs, one warm-up pass), then measure."""
    begin = perf_counter()
    sys.path.insert(0, str(HERE))
    from hostclock import HostClock

    clock = HostClock(Path(spec["workdir"]))
    import suite
    from repro.exp import code_fingerprint

    started = {"import_s": perf_counter() - begin}
    begin = perf_counter()
    fingerprint = code_fingerprint()
    started["fingerprint_s"] = perf_counter() - begin
    # set-up in reference seconds, segment by segment: interpreter start
    # and imports, then the workload's inputs, then the warm-up pass
    clock.add(time.monotonic() - spec["spawned_at"])

    begin = perf_counter()
    bench = suite.BENCHES[spec["workload"]](
        spec["seed"], spec["smoke"], Path(spec["workdir"]), clock)
    clock.add(perf_counter() - begin)
    setup_s = sum(clock.drain())
    if spec["mode"] == "trace":
        bench.watch_kernel_loads()
    warm = bench.run_pass()
    setup_s += warm.scaled_wall
    started["first_pass_s"] = warm.wall
    raw_setup_s = time.monotonic() - spec["spawned_at"]

    if spec["mode"] == "setup":
        doc: Dict[str, Any] = {}
    elif spec["mode"] == "trace":
        doc = trace(bench, warm, spec, started)
    else:
        doc = measure(bench, warm, spec)
    doc.update(setup_s=setup_s, raw_setup_s=raw_setup_s,
               code_fingerprint=fingerprint)
    print(json.dumps(doc))
    return 0


# ---------------------------------------------------------------------------
# parent: spawn children, collect, print
# ---------------------------------------------------------------------------

def spawn(spec: Dict[str, Any], workdir: Path) -> Dict[str, Any]:
    """Run one child to completion and return the document it printed."""
    env = dict(os.environ)
    env["HOME"] = str(workdir)
    env["REPRO_CACHE_DIR"] = str(workdir / "repro-cache")
    env["REPRO_HISTORY_DIR"] = str(workdir / "history")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    spec = dict(spec, workdir=str(workdir), spawned_at=time.monotonic())
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child",
         json.dumps(spec)],
        env=env, cwd=str(ROOT), stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise SystemExit(f"{spec['workload']}: child exited with "
                         f"{done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_workload(name: str, args, traced: bool) -> Dict[str, Any]:
    """One untraced or traced run of one workload, hermetic."""
    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=name + ".", dir=SCRATCH))
    spec = {"workload": name, "seed": args.seed, "seconds": args.seconds,
            "smoke": args.smoke, "mode": "trace" if traced else "measure"}
    if traced and args.spans_out:
        Path(args.spans_out).mkdir(parents=True, exist_ok=True)
        spec["spans_out"] = str(
            Path(args.spans_out).resolve() / f"spans-{name}.json")
    try:
        doc = spawn(spec, workdir)
        if not traced:
            setups = [doc]
            while len(setups) < (1 if args.smoke else SETUP_SAMPLES):
                setups.append(spawn(dict(spec, mode="setup"), workdir))
            doc["metrics"]["setup_s"] = statistics.median(
                s["setup_s"] for s in setups)
            doc["metrics"] = {metric: doc["metrics"][metric]
                              for metric in END_TO_END}
            doc["detail"]["raw_setup_s"] = statistics.median(
                s["raw_setup_s"] for s in setups)
            doc["detail"]["setup_samples"] = len(setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(SCRATCH.iterdir()):
            SCRATCH.rmdir()
    return doc


def environment(args) -> Dict[str, Any]:
    nproc = os.cpu_count() or 1
    load = os.getloadavg()[0]
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rev = "unknown"
    env = {"nproc": nproc, "python": platform.python_version(),
           "git_rev": rev, "seed": args.seed, "seconds": args.seconds,
           "smoke": args.smoke, "loadavg_1m": load,
           "hardware_reference": "none: the model is unvalidated against "
                                 "hardware; no error-vs-silicon figure",
           "warnings": []}
    if load > nproc:
        env["warnings"].append(
            f"1-minute load average {load:.2f} exceeds nproc {nproc}: "
            "timings will be noisy")
        print("warning: " + env["warnings"][-1], file=sys.stderr)
    return env


def print_metrics(name: str, title: str, metrics: Dict[str, float],
                  declared: Dict[str, dict]) -> None:
    print(f"== {name}: {title}")
    for metric, value in metrics.items():
        shown = str(value) if isinstance(value, int) else f"{value:.6g}"
        print(f"  {metric:<34} {shown:>16} {declared[metric]['unit']}")


def print_detail(doc: Dict[str, Any]) -> None:
    for key, value in doc["detail"].items():
        print(f"  {key:<34} {value}")
    print(f"  {'attempted / failed':<34} {doc['attempted']} / {doc['failed']}")
    for failure in doc["failures"]:
        print(f"  FAILED {failure}")


def run_suite(args) -> Dict[str, Any]:
    """Every selected workload: untraced unless a single-workload traced
    run was asked for; traced too when ``--trace`` is on."""
    single = args.workload is not None
    document: Dict[str, Any] = {"schema": 1, "env": environment(args),
                                "workloads": {}}
    for name in ([args.workload] if single else WORKLOADS):
        entry: Dict[str, Any] = {"attempted": 0, "failed": 0, "failures": []}
        runs = []
        if not (single and args.trace):
            runs.append(("end_to_end", "end to end, tracing off", END_TO_END))
        if args.trace:
            runs.append(("per_layer", "per layer, traced run", PER_LAYER))
        for key, title, declared in runs:
            doc = run_workload(name, args, traced=(key == "per_layer"))
            print_metrics(name, title, doc["metrics"], declared)
            print_detail(doc)
            entry[key] = doc["metrics"]
            entry[key + "_detail"] = doc["detail"]
            for count in ("attempted", "failed"):
                entry[count] += doc[count]
            entry["failures"] += doc["failures"]
            document["env"]["code_fingerprint"] = doc["code_fingerprint"]
        document["workloads"][name] = entry
    return document


def selfcheck(args) -> int:
    """The suite twice, back to back: end-to-end metrics must agree
    within their own bounds, exact metrics must be identical."""
    args.trace = 1
    first, second = run_suite(args), run_suite(args)
    problems = []
    for name in WORKLOADS:
        a, b = first["workloads"][name], second["workloads"][name]
        if a["failed"] or b["failed"]:
            problems.append(f"{name}: failed ops {a['failed']}, {b['failed']}")
        for metric, declared in END_TO_END.items():
            x, y = a["end_to_end"][metric], b["end_to_end"][metric]
            apart = abs(x - y) / min(x, y)
            verdict = "ok" if apart <= declared["bound"] else "DISAGREE"
            print(f"selfcheck {name:<13} {metric:<12} {x:>12.6g} {y:>12.6g} "
                  f"apart {apart:6.1%} bound {declared['bound']:.0%} "
                  f"{verdict}")
            if verdict != "ok":
                problems.append(f"{name} {metric}: {x:.6g} vs {y:.6g}")
        exact = [("sim_cycles", a["end_to_end_detail"]["sim_cycles"],
                  b["end_to_end_detail"]["sim_cycles"])]
        exact += [(metric, a["per_layer"][metric], b["per_layer"][metric])
                  for metric, declared in PER_LAYER.items()
                  if declared["unit"] in EXACT_UNITS]
        for metric, x, y in exact:
            if x != y:
                problems.append(f"{name} {metric} (exact): {x} vs {y}")
    for problem in problems:
        print("selfcheck FAILED:", problem)
    print(f"selfcheck: {len(problems)} problem(s)")
    return 1 if problems else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=DECLARATION["run_seconds"],
                        help="how long the timed passes of one run last")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--out", help="write the result document here")
    parser.add_argument("--spans-out",
                        help="directory for the traced runs' span files")
    parser.add_argument("--smoke", action="store_true",
                        help="minimum sizes, two passes: a functional check")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child_main(json.loads(args.child))
    if args.smoke:
        args.seconds = 0
    if args.selfcheck:
        return selfcheck(args)

    document = run_suite(args)
    if args.out:
        Path(args.out).write_text(json.dumps(document, indent=1) + "\n")
    attempted = sum(w["attempted"] for w in document["workloads"].values())
    failed = sum(w["failed"] for w in document["workloads"].values())
    if args.workload:
        entry = document["workloads"][args.workload]
        key, declared = (("per_layer", PER_LAYER) if args.trace
                         else ("end_to_end", END_TO_END))
        print(json.dumps({
            "correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value,
                               "unit": declared[name]["unit"]}
                        for name, value in entry[key].items()}}))
    else:
        print(f"suite: {len(document['workloads'])} workloads, "
              f"attempted {attempted}, failed {failed}")
    return 0 if failed == 0 or args.workload else 1


if __name__ == "__main__":
    sys.exit(main())
