"""Static-HLS baseline: a model of the Intel HLS Compiler flow (§V-E).

The paper's Table V pits TAPAS against Intel HLS v17.1 on the two
benchmarks expressible with static parallelism (SAXPY, image scaling),
using the suggested streaming DDR interface and a 270 ns DRAM latency.
This model captures the two properties that define that flow:

* **static scheduling** — the loop is unrolled U times and modulo-
  scheduled with fixed latencies; the initiation interval is set by the
  busiest resource;
* **streaming memory** — loads/stores go through LSU stream buffers that
  deliver a deterministic word rate from DDR, paid for in block RAM.

Runtime therefore follows ``depth + iterations/U * II`` with an II bound
by both compute and the streaming word rate. No dynamic behaviour is
possible: conditional work is if-converted (both sides execute), and the
trip count must be a loop bound, not a sentinel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.errors import ConfigError


@dataclass
class StaticKernelSpec:
    """Per-iteration operation counts of the loop body handed to the
    static flow (after if-conversion: all paths counted)."""

    name: str
    loads_per_iter: int
    stores_per_iter: int
    alu_per_iter: int
    mul_per_iter: int = 0
    fp_per_iter: int = 0
    #: longest dependence chain through one iteration (cycles at fixed
    #: latencies) — the pipeline depth
    depth: int = 12


class StaticHLSModel:
    """Timing/resource model for the Intel-HLS-style flow, over fixed
    calibration constants."""

    #: sustained words/cycle the DDR interface delivers across *all*
    #: stream buffers together (the shared-bus bound both flows hit)
    stream_words_per_cycle = 1.0
    #: cycles of DDR latency hidden by the stream prefetcher at startup
    dram_latency_cycles = 40
    #: achievable clock (Table V: 155-181 MHz on Cyclone V)
    base_mhz = 180.0
    mhz_slowdown_per_unroll = 4.0

    # resource cost table (ALMs), loosely calibrated to Table V
    alm_base = 2600              # control + DDR masters
    alm_per_alu = 30
    alm_per_mul = 60
    alm_per_fp = 220
    alm_per_lsu = 260
    reg_per_alm = 1.9
    #: stream buffers are the BRAM hogs (Table V: 38-67 M20Ks)
    bram_per_stream = 11
    bram_base = 5

    def initiation_interval(self, spec: StaticKernelSpec, unroll: int) -> float:
        """II per *unrolled group* of ``unroll`` iterations."""
        words = (spec.loads_per_iter + spec.stores_per_iter) * unroll
        memory_ii = words / self.stream_words_per_cycle
        compute_ii = 1.0  # fully pipelined datapath
        return max(compute_ii, memory_ii)

    def cycles(self, spec: StaticKernelSpec, iterations: int, unroll: int) -> int:
        if unroll < 1:
            raise ConfigError("unroll factor must be >= 1")
        groups = (iterations + unroll - 1) // unroll
        ii = self.initiation_interval(spec, unroll)
        return int(self.dram_latency_cycles + spec.depth + groups * ii)

    def mhz(self, unroll: int) -> float:
        return max(60.0, self.base_mhz - self.mhz_slowdown_per_unroll * (unroll - 1))

    def runtime_seconds(self, spec: StaticKernelSpec, iterations: int,
                        unroll: int) -> float:
        return self.cycles(spec, iterations, unroll) / (self.mhz(unroll) * 1e6)

    # -- resources -----------------------------------------------------------

    def alms(self, spec: StaticKernelSpec, unroll: int) -> int:
        per_iter = (spec.alu_per_iter * self.alm_per_alu
                    + spec.mul_per_iter * self.alm_per_mul
                    + spec.fp_per_iter * self.alm_per_fp
                    + (spec.loads_per_iter + spec.stores_per_iter)
                    * self.alm_per_lsu)
        return int(self.alm_base + unroll * per_iter)

    def registers(self, spec: StaticKernelSpec, unroll: int) -> int:
        return int(self.alms(spec, unroll) * self.reg_per_alm)

    def brams(self, spec: StaticKernelSpec, unroll: int) -> int:
        streams = spec.loads_per_iter + spec.stores_per_iter
        # double-buffered stream LSUs; deeper buffers at higher unroll
        return int(self.bram_base
                   + streams * self.bram_per_stream * (1 + 0.25 * (unroll - 1)))


@dataclass
class StaticHLSReport:
    """One Table V row for the Intel-HLS side."""

    name: str
    unroll: int
    mhz: float
    alms: int
    registers: int
    brams: int
    cycles: int
    runtime_seconds: float


def synthesize_static(spec: StaticKernelSpec, iterations: int,
                      unroll: int) -> StaticHLSReport:
    """Run the static flow end to end for one kernel configuration."""
    model = StaticHLSModel()
    return StaticHLSReport(
        name=spec.name,
        unroll=unroll,
        mhz=model.mhz(unroll),
        alms=model.alms(spec, unroll),
        registers=model.registers(spec, unroll),
        brams=model.brams(spec, unroll),
        cycles=model.cycles(spec, iterations, unroll),
        runtime_seconds=model.runtime_seconds(spec, iterations, unroll),
    )


#: the two Table V kernels, counted from their loop bodies
SAXPY_SPEC = StaticKernelSpec(
    name="saxpy", loads_per_iter=2, stores_per_iter=1,
    alu_per_iter=2, fp_per_iter=2, depth=14)
IMAGE_SCALE_SPEC = StaticKernelSpec(
    name="image_scale", loads_per_iter=3, stores_per_iter=1,
    alu_per_iter=10, mul_per_iter=2, depth=16)

TABLE5_SPECS: Dict[str, StaticKernelSpec] = {
    "saxpy": SAXPY_SPEC,
    "image_scale": IMAGE_SCALE_SPEC,
}
