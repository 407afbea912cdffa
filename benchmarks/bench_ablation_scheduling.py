"""Ablation: task-queue scheduling and sizing design choices.

The queue dispatch policy (DESIGN.md: LIFO for recursion, mirroring a
work-first Cilk scheduler) and the Ntasks depth bound the live spawn
tree; these runs quantify both effects on the recursive benchmarks.
"""

import sweeplib

from repro.accel import AcceleratorConfig, TaskUnitParams
from repro.errors import DeadlockError
from repro.exp import register_evaluator
from repro.reports import render_table, sweep_record
from repro.workloads import REGISTRY, fib_reference


def _eval_fib_queue(spec):
    """fib(n) under a given queue depth/policy; an undersized queue is
    reported as a ``livelock`` outcome, not a failed point — the
    deadlock *is* the measurement."""
    workload = REGISTRY.get("fibonacci")
    config = AcceleratorConfig(unit_params={
        "fib": TaskUnitParams(ntiles=spec["tiles"],
                              queue_depth=spec["queue_depth"],
                              policy=spec["policy"])})
    accel = workload.build(config)
    try:
        result = accel.run("fib", [spec["n"]])
    except DeadlockError:
        return {"outcome": "livelock", "cycles": None, "peak": None}
    assert result.retval == fib_reference(spec["n"])
    peak = accel.units[0].queue.stats()["peak_occupancy"]
    return {"outcome": "ok", "cycles": result.cycles, "peak": peak}


register_evaluator("ablation_fib_queue", _eval_fib_queue,
                   program_text=sweeplib.file_program_text(__file__))


def _point(n, queue_depth, policy, tiles=4):
    return {"evaluator": "ablation_fib_queue", "n": n,
            "queue_depth": queue_depth, "policy": policy, "tiles": tiles}


def test_ablation_queue_policy(benchmark, save_result, save_json,
                               sweep_runner):
    """LIFO (depth-first) keeps the live spawn tree far smaller than
    FIFO (breadth-first) at equal correctness."""
    points = [_point(12, queue_depth=1024, policy=policy)
              for policy in ("lifo", "fifo")]

    def run():
        return sweeplib.run_points(sweep_runner, points)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    data = {record["spec"]["policy"]:
            (record["value"]["cycles"], record["value"]["peak"])
            for record in result.records}
    assert all(record["value"]["outcome"] == "ok"
               for record in result.records)

    rows = [[p, c, peak] for p, (c, peak) in data.items()]
    text = render_table(["Policy", "cycles", "peak queue occupancy"], rows,
                        title="Ablation — dispatch policy on fib(12)")
    save_result("ablation_policy", text)
    save_json("ablation_policy", [
        sweep_record(record, "fibonacci",
                     config={"ntiles": 4, "queue_depth": 1024,
                             "policy": record["spec"]["policy"], "n": 12},
                     peak_queue_occupancy=record["value"]["peak"])
        for record in result.records], sweep=result.summary)

    # with 4 tiles x 8 in-flight there are ~32 concurrent walkers, which
    # dilutes pure depth-first order — the live tree still shrinks ~25%
    lifo_peak = data["lifo"][1]
    fifo_peak = data["fifo"][1]
    assert lifo_peak < fifo_peak * 0.85, (
        f"LIFO peak {lifo_peak} not smaller than FIFO {fifo_peak}")


def test_ablation_queue_depth_safety(benchmark, save_result, save_json,
                                     sweep_runner):
    """An undersized queue is a circular wait: the engine reports the
    livelock instead of hanging, and a tree-sized queue always works."""
    depths = (8, 64, 512)
    points = [_point(12, queue_depth=depth, policy="lifo")
              for depth in depths]

    def run():
        return sweeplib.run_points(sweep_runner, points)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    data = {record["spec"]["queue_depth"]:
            (record["value"]["outcome"], record["value"]["cycles"],
             record["value"]["peak"])
            for record in result.records}

    rows = [[d, *v] for d, v in data.items()]
    text = render_table(["Depth", "outcome", "cycles", "peak"], rows,
                        title="Ablation — queue depth vs fib(12)'s "
                              "465-task spawn tree")
    save_result("ablation_queue_depth", text)
    save_json("ablation_queue_depth", [
        sweep_record(record, "fibonacci",
                     config={"ntiles": 4,
                             "queue_depth": record["spec"]["queue_depth"],
                             "policy": "lifo", "n": 12},
                     outcome=record["value"]["outcome"],
                     peak_queue_occupancy=record["value"]["peak"])
        for record in result.records], sweep=result.summary)

    assert data[8][0] == "livelock"
    assert data[512][0] == "ok"


def _eval_inflight(spec):
    workload = REGISTRY.get(spec["workload"])
    from repro.accel.generator import generate

    design_units = {}
    for task in generate(workload.fresh_module()).graph.tasks:
        design_units[task.name] = TaskUnitParams(
            ntiles=spec["tiles"],
            max_inflight_per_tile=spec["inflight"])
    config = AcceleratorConfig(unit_params=design_units)
    result = workload.run(config=config, scale=spec["scale"])
    assert result.correct
    return {"cycles": result.cycles}


register_evaluator("ablation_inflight", _eval_inflight,
                   program_text=sweeplib.file_program_text(__file__))


def test_ablation_inflight_depth(benchmark, save_result, save_json,
                                 sweep_runner):
    """Per-tile pipelining (Fig 7): deeper in-flight windows raise
    throughput per tile until another resource saturates."""
    inflights = (1, 2, 8)
    points = [{"evaluator": "ablation_inflight", "workload": "stencil",
               "tiles": 2, "scale": 2, "inflight": inflight}
              for inflight in inflights]

    def run():
        return sweeplib.run_points(sweep_runner, points)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    data = {record["spec"]["inflight"]: record["value"]["cycles"]
            for record in result.records}

    rows = [[i, c] for i, c in data.items()]
    text = render_table(["In-flight/tile", "stencil cycles"], rows,
                        title="Ablation — per-tile task pipelining depth")
    save_result("ablation_inflight", text)
    save_json("ablation_inflight", [
        sweep_record(record, "stencil",
                     config={"ntiles": 2,
                             "max_inflight_per_tile":
                                 record["spec"]["inflight"],
                             "scale": 2})
        for record in result.records], sweep=result.summary)
    assert data[8] < data[1] * 0.7
