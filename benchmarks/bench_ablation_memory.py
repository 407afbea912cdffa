"""Ablation: the memory-system design choices DESIGN.md calls out.

The paper's §VI names the cache hierarchy as the main bottleneck
("limited support for multiple outstanding cache misses"). These
ablations quantify that on our model: MSHR count, data-box staging
entries, and cache capacity.

The MSHR and capacity sweeps are plain config-override grids, so they
use the built-in ``workload`` evaluator; the data-box sweep has to
pre-register per-unit params from the generated design, so it ships its
own evaluator.
"""

import sweeplib

from repro.accel import TaskUnitParams
from repro.exp import register_evaluator, workload_points
from repro.reports import render_table, sweep_record
from repro.workloads import REGISTRY


def _eval_databox(spec):
    workload = REGISTRY.get(spec["workload"])
    ntiles = spec["tiles"]
    config = workload.default_config(ntiles=ntiles)
    config.unit_params = {}
    config.default_ntiles = ntiles
    # apply the databox depth to every unit by pre-registering params
    from repro.accel.generator import generate

    design = generate(workload.fresh_module())
    config.unit_params = {
        task.name: TaskUnitParams(ntiles=ntiles,
                                  databox_entries=spec["databox_entries"])
        for task in design.graph.tasks
    }
    result = workload.run(config=config, scale=spec["scale"])
    assert result.correct, spec["workload"]
    return {"cycles": result.cycles}


register_evaluator("ablation_databox", _eval_databox,
                   program_text=sweeplib.file_program_text(__file__))


def test_ablation_mshr_count(benchmark, save_result, save_json,
                             sweep_runner):
    """More MSHRs overlap more misses; 1 MSHR serialises DRAM traffic."""
    mshr_counts = (1, 2, 4, 8)
    points = []
    for mshrs in mshr_counts:
        points += workload_points(
            ["saxpy", "matrix_add"], tiles=(4,), scales=2,
            overrides={"cache": {"mshr_count": mshrs}})

    def run():
        return sweeplib.run_points(sweep_runner, points)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    data = {mshrs: {} for mshrs in mshr_counts}
    for record in result.records:
        spec, value = record["spec"], record["value"]
        data[spec["overrides"]["cache"]["mshr_count"]][
            spec["workload"]] = value["cycles"]

    rows = [[m, d["saxpy"], d["matrix_add"]] for m, d in data.items()]
    text = render_table(["MSHRs", "saxpy cycles", "matrix cycles"], rows,
                        title="Ablation — MSHR count (memory-bound kernels)")
    save_result("ablation_mshr", text)
    save_json("ablation_mshr", [
        sweep_record(record, record["spec"]["workload"],
                     config={"ntiles": 4,
                             "mshrs": record["spec"]["overrides"][
                                 "cache"]["mshr_count"],
                             "scale": 2})
        for record in result.records], sweep=result.summary)

    # fewer MSHRs must not be faster; 1 MSHR visibly hurts streaming codes
    assert data[1]["saxpy"] > data[4]["saxpy"] * 1.1
    assert data[8]["saxpy"] <= data[1]["saxpy"]
    assert data[8]["matrix_add"] <= data[1]["matrix_add"]


def test_ablation_cache_size(benchmark, save_result, save_json,
                             sweep_runner):
    """The paper's 16K L1 vs smaller: once the matrices stop fitting,
    conflict misses start costing AXI round trips."""
    sizes_kb = (1, 4, 16)
    points = []
    for kb in sizes_kb:
        points += workload_points(
            ["matrix_add"], tiles=(4,), scales=2,
            overrides={"cache": {"size_bytes": kb * 1024}})

    def run():
        return sweeplib.run_points(sweep_runner, points)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    data = {record["spec"]["overrides"]["cache"]["size_bytes"] // 1024:
            record["value"]["cycles"] for record in result.records}

    rows = [[kb, cycles] for kb, cycles in data.items()]
    text = render_table(["L1 KB", "matrix_add cycles"], rows,
                        title="Ablation — shared L1 capacity")
    save_result("ablation_cache_size", text)
    save_json("ablation_cache_size", [
        sweep_record(record, "matrix_add",
                     config={"ntiles": 4,
                             "l1_kb": record["spec"]["overrides"][
                                 "cache"]["size_bytes"] // 1024,
                             "scale": 2})
        for record in result.records], sweep=result.summary)
    assert data[16] < data[1]   # 3 matrices thrash a 1 KB L1
    assert data[16] <= data[4]


def test_ablation_databox_entries(benchmark, save_result, save_json,
                                  sweep_runner):
    """The Fig 8 allocator table bounds memory parallelism per unit: a
    single staging entry serialises every tile's memory operations."""
    entry_counts = (1, 2, 8)
    points = [{"evaluator": "ablation_databox", "workload": "matrix_add",
               "tiles": 4, "scale": 2, "databox_entries": entries}
              for entries in entry_counts]

    def run():
        return sweeplib.run_points(sweep_runner, points)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    data = {record["spec"]["databox_entries"]: record["value"]["cycles"]
            for record in result.records}

    rows = [[e, c] for e, c in data.items()]
    text = render_table(["Entries", "matrix cycles"], rows,
                        title="Ablation — data-box staging entries")
    save_result("ablation_databox", text)
    save_json("ablation_databox", [
        sweep_record(record, "matrix_add",
                     config={"ntiles": 4,
                             "databox_entries":
                                 record["spec"]["databox_entries"],
                             "scale": 2})
        for record in result.records], sweep=result.summary)
    assert data[8] < data[1]
