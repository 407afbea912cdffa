"""Building your own accelerator: a histogram-style custom kernel.

Everything here is public API: write a kernel in the Cilk-like language,
pick Stage-3 parameters per task unit, inspect the generated RTL and the
resource/power estimate, then run against the CPU baseline — the same
workflow the paper's evaluation uses.

Run:  python examples/custom_accelerator.py
"""

from repro.accel import (
    CYCLONE_V,
    AcceleratorConfig,
    TaskUnitParams,
    build_accelerator,
    generate,
)
from repro.baselines import MulticoreCPU
from repro.frontend import compile_source
from repro.ir.types import I32
from repro.memory.backing import MainMemory
from repro.reports import (
    estimate_mhz,
    estimate_resources,
    fpga_power_watts,
)
from repro.rtl import emit_txu

SOURCE = """
// Per-bucket vote counting. Each parallel task scans the whole input
// for its own bucket, so buckets never race (one writer per slot).
func count_bucket(votes: i32*, counts: i32*, n: i32, bucket: i32) {
  var total: i32 = 0;
  for (var i: i32 = 0; i < n; i = i + 1) {
    if (votes[i] == bucket) {
      total = total + 1;
    }
  }
  counts[bucket] = total;
}

func histogram(votes: i32*, counts: i32*, n: i32, buckets: i32) {
  cilk_for (var b: i32 = 0; b < buckets; b = b + 1) {
    count_bucket(votes, counts, n, b);
  }
}
"""


def main():
    module = compile_source(SOURCE, "histogram")

    # Stage 3: the scanning worker gets the tiles; control stays at 1
    config = AcceleratorConfig(unit_params={
        "histogram": TaskUnitParams(ntiles=1),
        "count_bucket": TaskUnitParams(ntiles=4, queue_depth=16),
    })
    accel = build_accelerator(module, config)

    # host data: 256 votes over 8 buckets
    import random
    rng = random.Random(1)
    buckets = 8
    votes = [rng.randrange(buckets) for _ in range(256)]
    base_votes = accel.memory.alloc_array(I32, votes)
    base_counts = accel.memory.alloc_array(I32, [0] * buckets)

    result = accel.run("histogram", [base_votes, base_counts,
                                     len(votes), buckets])
    counts = accel.memory.read_array(base_counts, I32, buckets)
    expected = [votes.count(b) for b in range(buckets)]
    print("=== Custom accelerator: parallel histogram ===")
    print(f"counts  : {counts}")
    print(f"expected: {expected}")
    print(f"match   : {counts == expected}, cycles: {result.cycles}")

    # resource / power estimate (the Stage-3 report)
    report = estimate_resources(accel)
    mhz = estimate_mhz(CYCLONE_V, report.alms)
    watts = fpga_power_watts(report.alms, report.brams, mhz)
    print(f"\nestimate: {report.alms} ALMs, {report.brams} M20K, "
          f"{mhz:.0f} MHz, {watts:.2f} W on {CYCLONE_V.name}")

    # compare with the 4-core CPU model on the same IR
    memory = MainMemory(1 << 22)
    cpu = MulticoreCPU(compile_source(SOURCE, "histogram_cpu"), memory)
    cb = memory.alloc_array(I32, votes)
    cc = memory.alloc_array(I32, [0] * buckets)
    cpu_result = cpu.run("histogram", [cb, cc, len(votes), buckets])
    fpga_s = result.cycles / (mhz * 1e6)
    cpu_s = cpu_result.time_seconds(cpu.model)
    print(f"FPGA {fpga_s*1e6:.1f} us vs CPU {cpu_s*1e6:.1f} us "
          f"-> {cpu_s/fpga_s:.2f}x; perf/W gain ~"
          f"{(cpu_s * 48.0) / (fpga_s * watts):.0f}x")

    # peek at the generated dataflow for the worker
    design = generate(compile_source(SOURCE, "histogram_rtl"))
    print("\n=== Worker TXU (first lines of generated RTL) ===")
    worker = next(t for t in design.graph.tasks if t.name == "count_bucket")
    print("\n".join(emit_txu(worker).splitlines()[:14]))


if __name__ == "__main__":
    main()
