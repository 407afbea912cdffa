"""Simulator throughput: the three-engine matrix (dense / event / compiled).

Not a paper figure — this measures the *host-side* cost of the cycle
simulator itself. Two layered optimisations are gated here:

* the **event engine** (one wake-cycle scan per cycle plus quiescent
  fast-forward) must deliver a large wall-clock win over the dense
  oracle on memory-bound workloads, where most cycles are DRAM-latency
  quiet spans, while staying within noise of the oracle on always-hot
  ones;
* the **compiled engine** (per-design specialized flat kernels,
  ``repro.sim.compile``) must beat the event engine *everywhere*: it
  inherits the event engine's fast-forward, then removes Python
  interpretation overhead from the cycles that actually execute.

All three engines must stay bit-identical on every config here (cycle
counts asserted below; the full stats contract is enforced by
``tests/sim/test_engine_diff.py`` and the hypothesis parity properties).

Configurations:

* ``fib`` / ``mergesort`` / ``stencil`` — default configs: activity is
  dense (something fires almost every cycle), so there is nothing to
  fast-forward and every saved microsecond must come from cheaper
  per-cycle execution.
* ``saxpy-membound`` — 1 KB cache, a single MSHR (the paper's §VI notes
  TAPAS has limited support for multiple outstanding misses), 270-cycle
  DRAM latency (the paper's Table V DRAM access time). Nearly every
  cycle is a quiet DRAM wait: the fast-forward regime.
* ``saxpy-membound-t4`` — the same at 4 tiles: the same 70 986 cycles
  with twice the instances waiting on the one MSHR. The compiled kernel
  parks a blocked instance on its memory port instead of re-stepping it
  (``Steps`` / ``Parked`` columns: stepper calls made / skipped), so
  its host time no longer grows with tiles x in-flight; before parking
  this row cost ~1.9x the tiles-2 one.

Gates (best-of-N interleaved wall clock, thresholds ~30-40% under the
measured speedups to absorb shared-runner noise — the measured numbers
and the analysis of why the compiled engine plateaus at ~2-3x over the
event engine on always-hot workloads live in docs/simulator.md):

========================  =======================  ====================
case                      compiled vs event        compiled vs dense
========================  =======================  ====================
fib                       >= 1.4x  (meas. ~2.0x)   --
mergesort                 >= 1.7x  (meas. ~2.4x)   --
stencil                   >= 1.6x  (meas. ~2.3x)   --
saxpy-membound            >= 1.6x  (meas. ~2.5x)   >= 11x (meas. ~17x)
saxpy-membound-t4         >= 2.3x  (meas. ~3.5x)   >= 21x (meas. ~33x)
========================  =======================  ====================

The event engine keeps its original gates: >= 5x over dense on the
memory-bound cases, within 5% of dense on always-hot ones.

The cases run through the SweepRunner like every other bench, but with
the result cache disabled and a single worker: this bench measures host
wall-clock, which a cache hit would skip and parallel workers would
perturb.
"""

import time

import sweeplib

from repro.exp import config_from_spec, register_evaluator
from repro.reports import render_table, sweep_record
from repro.workloads import REGISTRY

#: the three kernels under test, in measurement-interleave order
ENGINES = ("dense", "event", "compiled")

_MEMBOUND = {"board": "Arria 10",
             "cache": {"size_bytes": 1024, "mshr_count": 1},
             "dram_latency_cycles": 270}

#: (row name, workload, scale, tiles, plain-JSON config overrides)
CASES = [
    ("fib", "fibonacci", 2, 2, {}),
    ("mergesort", "mergesort", 2, 2, {}),
    ("stencil", "stencil", 2, 2, {}),
    ("saxpy-membound", "saxpy", 16, 2, _MEMBOUND),
    ("saxpy-membound-t4", "saxpy", 16, 4, _MEMBOUND),
]

#: compiled-vs-event wall-clock floor per case (see the module table)
COMPILED_MIN_SPEEDUP = {
    "fib": 1.4,
    "mergesort": 1.7,
    "stencil": 1.6,
    "saxpy-membound": 1.6,
    "saxpy-membound-t4": 2.3,
}

#: compiled-vs-dense floors on the memory-bound cases: fast-forward and
#: specialization compose, so the product gate is the headline number
COMPILED_MEMBOUND_VS_DENSE = {"saxpy-membound": 11.0,
                              "saxpy-membound-t4": 21.0}

#: event-vs-dense gate for the memory-bound cases (observers detached)
MEMBOUND_MIN_SPEEDUP = 5.0

#: even on always-hot workloads (fib: something fires nearly every
#: cycle) the event engine's wake-cycle scan must keep its overhead
#: under 5% of the dense oracle
ALWAYS_HOT_MIN_SPEEDUP = 0.95

#: wall-clock repetitions per (case, engine); best-of damps allocator
#: warm-up and scheduler noise, which on a shared single-core host
#: swamps the margins the gates are about
MEASURE_REPS = 5


def _eval_throughput_case(spec):
    """Best-of-N seconds for all three engines, repetitions interleaved:
    host noise is time-correlated, so rotating dense/event/compiled
    inside each rep exposes every engine to the same noisy patches
    instead of letting one engine soak up a slow spell alone."""
    workload = REGISTRY.get(spec["workload"])
    best = {}
    results = {}
    for _ in range(MEASURE_REPS):
        for engine in ENGINES:
            config = config_from_spec(workload, dict(spec, engine=engine))
            start = time.perf_counter()
            result = workload.run(config, scale=spec["scale"])
            seconds = time.perf_counter() - start
            assert result.correct, f"{spec['case']} wrong under {engine}"
            if engine not in best or seconds < best[engine]:
                best[engine] = seconds
                results[engine] = result
    cycles = {engine: results[engine].cycles for engine in ENGINES}
    assert len(set(cycles.values())) == 1, (spec["case"], cycles)
    compiled = results["compiled"]
    engine_stats = compiled.stats["engine"]
    assert engine_stats.get("compiled_fallback") is None, (
        f"{spec['case']}: compiled run fell back "
        f"({engine_stats['compiled_fallback']!r})")

    def _ratio(a, b):
        return best[a] / best[b] if best[b] else float("inf")

    return {
        "name": spec["case"], "workload": spec["workload"],
        "scale": spec["scale"], "tiles": spec["tiles"],
        "cycles": compiled.cycles,
        "seconds": {engine: best[engine] for engine in ENGINES},
        "event_speedup": _ratio("dense", "event"),
        "compiled_speedup": _ratio("event", "compiled"),
        "compiled_vs_dense": _ratio("dense", "compiled"),
        "cycles_per_second": (compiled.cycles / best["compiled"]
                              if best["compiled"] else float("inf")),
        "fast_forwarded_cycles":
            results["event"].stats["engine"]["fast_forwarded_cycles"],
        "stats": compiled.stats,
        "dense_stats": results["dense"].stats["engine"],
        "event_stats": results["event"].stats["engine"],
    }


register_evaluator("sim_throughput", _eval_throughput_case,
                   program_text=sweeplib.file_program_text(__file__))


def test_sim_throughput(benchmark, save_result, save_json):
    runner = sweeplib.make_runner(jobs=1, cache=None)
    points = [{"evaluator": "sim_throughput", "case": case,
               "workload": workload, "tiles": tiles, "scale": scale,
               "overrides": overrides}
              for case, workload, scale, tiles, overrides in CASES]

    def run():
        return sweeplib.run_points(runner, points)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = result.values

    table = render_table(
        ["Case", "Cycles", "Dense s", "Event s", "Compiled s",
         "Evt/Dns", "Cmp/Evt", "Cmp/Dns", "Mcyc/s", "Steps", "Parked"],
        [[r["name"], r["cycles"],
          round(r["seconds"]["dense"], 3),
          round(r["seconds"]["event"], 3),
          round(r["seconds"]["compiled"], 3),
          f"{r['event_speedup']:.2f}x",
          f"{r['compiled_speedup']:.2f}x",
          f"{r['compiled_vs_dense']:.2f}x",
          round(r["cycles_per_second"] / 1e6, 3),
          r["stats"]["engine"]["instance_steps"],
          r["stats"]["engine"]["parked_skips"]]
         for r in rows],
        title="Simulator throughput — dense oracle vs event engine "
              "vs compiled kernels")
    save_result("sim_throughput", table)
    save_json("sim_throughput", [
        sweep_record(record, record["value"]["workload"],
                     config={"ntiles": record["value"]["tiles"],
                             "scale": record["value"]["scale"],
                             "case": record["value"]["name"]},
                     dense_host_seconds=round(
                         record["value"]["seconds"]["dense"], 6),
                     event_host_seconds=round(
                         record["value"]["seconds"]["event"], 6),
                     compiled_host_seconds=round(
                         record["value"]["seconds"]["compiled"], 6),
                     event_speedup=round(record["value"]["event_speedup"], 2),
                     compiled_speedup=round(
                         record["value"]["compiled_speedup"], 2),
                     compiled_vs_dense=round(
                         record["value"]["compiled_vs_dense"], 2),
                     fast_forwarded_cycles=record["value"][
                         "fast_forwarded_cycles"],
                     instance_steps=record["value"]["stats"]["engine"][
                         "instance_steps"],
                     parked_skips=record["value"]["stats"]["engine"][
                         "parked_skips"])
        for record in result.records], sweep=result.summary)

    by_name = {r["name"]: r for r in rows}
    # event-engine gates (unchanged from the two-engine bench): the
    # fast-forward pays off where cycles are quiet ...
    for name in COMPILED_MEMBOUND_VS_DENSE:
        membound = by_name[name]
        assert membound["event_speedup"] >= MEMBOUND_MIN_SPEEDUP, (
            f"{name}: event speedup {membound['event_speedup']:.2f}x "
            f"< {MEMBOUND_MIN_SPEEDUP}x")
        assert membound["fast_forwarded_cycles"] > membound["cycles"] // 2
    # ... while the wake-cycle scan keeps the event engine within 5% of
    # the dense oracle where nothing can be skipped
    for name in ("fib", "mergesort", "stencil"):
        assert by_name[name]["event_speedup"] >= ALWAYS_HOT_MIN_SPEEDUP, (
            f"{name}: event engine {by_name[name]['event_speedup']:.2f}x "
            f"dense < {ALWAYS_HOT_MIN_SPEEDUP}x on an always-hot workload")
    # compiled-engine gates: specialized kernels must beat the event
    # engine on every case — always-hot wins come from cheaper executed
    # cycles, the memory-bound win stacks on top of fast-forward
    for name, floor in COMPILED_MIN_SPEEDUP.items():
        got = by_name[name]["compiled_speedup"]
        assert got >= floor, (
            f"{name}: compiled kernel {got:.2f}x event < {floor}x")
    for name, floor in COMPILED_MEMBOUND_VS_DENSE.items():
        got = by_name[name]["compiled_vs_dense"]
        assert got >= floor, (
            f"{name}: compiled kernel {got:.2f}x dense < {floor}x")
        # instances waiting on the one MSHR are parked, not re-stepped:
        # fewer stepper calls than simulated cycles at either tile count
        steps = by_name[name]["stats"]["engine"]["instance_steps"]
        assert steps < by_name[name]["cycles"], (name, steps)
