"""Stage-3 parameterisation: boards, per-task-unit knobs, accelerator config.

TAPAS is a parameterised hardware generator with late-stage binding
(paper §III-D): the two headline parameters are the task-queue depth
(Ntasks) and the tile count (Ntiles), settable per task unit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional

from repro.errors import ConfigError, check_int
from repro.memory.cache import CacheParams
from repro.sim.engine import DEFAULT_ENGINE, ENGINES
from repro.task.txu import DEFAULT_LATENCIES


@dataclass(frozen=True)
class Board:
    """An FPGA target. Frequencies/capacities from the paper's Table III."""

    name: str
    base_mhz: float          # achievable clock for a small design
    alm_capacity: int        # adaptive logic modules on the chip
    bram_capacity: int       # M20K block RAMs
    dram_latency_ns: float = 270.0   # Table V setup

    def dram_latency_cycles(self, mhz: Optional[float] = None) -> int:
        mhz = mhz or self.base_mhz
        return max(1, round(self.dram_latency_ns * mhz / 1000.0))


#: Cyclone V 5CSEMA5: 32,070 ALMs, 397 M20Ks (DE1-SoC)
CYCLONE_V = Board("Cyclone V", base_mhz=185.0, alm_capacity=32070,
                  bram_capacity=397)
#: Arria 10 10AS066: 251,680 ALMs, 2,131 M20Ks
ARRIA_10 = Board("Arria 10", base_mhz=308.0, alm_capacity=251680,
                 bram_capacity=2131)

BOARDS = {b.name: b for b in (CYCLONE_V, ARRIA_10)}


@dataclass
class TaskUnitParams:
    """Per-task-unit knobs bound at Stage 3."""

    ntiles: int = 1
    queue_depth: Optional[int] = None    # None -> concurrency-opt hint
    max_inflight_per_tile: int = 8
    databox_entries: int = 8
    policy: Optional[str] = None         # None -> lifo iff recursive

    def __post_init__(self):
        check_int("ntiles", self.ntiles, 1)
        if self.queue_depth is not None:
            check_int("queue_depth", self.queue_depth, 1)
        check_int("max_inflight_per_tile", self.max_inflight_per_tile, 1)
        check_int("databox_entries", self.databox_entries, 1)
        if self.policy not in (None, "fifo", "lifo"):
            raise ConfigError(f"unknown policy {self.policy!r} "
                              "(expected fifo/lifo, or None)")

    def bind(self, sizing) -> "TaskUnitParams":
        """These knobs with the late-bound ones resolved against the
        task's concurrency-opt ``sizing``: an unset queue depth is the
        recommended one, an unset policy is lifo iff the task recurses.
        Elaboration and the lint read this; the RTL renders what
        elaboration built."""
        return replace(
            self,
            queue_depth=self.queue_depth or sizing.recommended_queue_depth,
            policy=self.policy or ("lifo" if sizing.recursive else "fifo"))


@dataclass
class AcceleratorConfig:
    """Everything Stage 3 needs to elaborate an accelerator."""

    board: Board = CYCLONE_V
    default_ntiles: int = 1
    #: task-name -> overrides (task names are function names, or
    #: "function.tN" for detached-region tasks)
    unit_params: Dict[str, TaskUnitParams] = field(default_factory=dict)
    cache: CacheParams = field(default_factory=CacheParams)
    #: node latency per functional-unit class, merged onto
    #: ``DEFAULT_LATENCIES``: a partial table overrides only what it names
    latencies: Dict[str, int] = field(default_factory=dict)
    memory_bytes: int = 1 << 22
    dram_latency_cycles: Optional[int] = None  # None -> board default
    #: "cache" (the paper's evaluated model: shared L1 + AXI DRAM) or
    #: "scratchpad" (the Fig 8 alternative backend: fixed-latency SRAM,
    #: data preloaded by the host — the streaming-HLS memory model)
    memory_model: str = "cache"
    scratchpad_latency: int = 2
    #: static-analysis gate run before elaboration:
    #:   "none"   — skip the analysis entirely (default)
    #:   "warn"   — print warnings; refuse to build on a *definite* race
    #:   "strict" — refuse to build on any race finding
    analysis_level: str = "none"
    #: simulation kernel: "compiled" (per-design generated flat kernel,
    #: the default; runs "dense" for instrumentation/topologies the
    #: codegen does not cover), "dense" (tick everything every cycle —
    #: the bit-identical oracle), or "event" (wakeup scheduling +
    #: quiescent fast-forward). Purely a host-side choice; cycle counts
    #: and architectural stats are identical across all three.
    engine: str = DEFAULT_ENGINE

    def __post_init__(self):
        for kind, cycles in (self.latencies or {}).items():
            if kind not in DEFAULT_LATENCIES:
                raise ConfigError(f"unknown latency class {kind!r} (expected "
                                  f"one of {', '.join(DEFAULT_LATENCIES)})")
            check_int(f"latency of {kind!r}", cycles, 0)
        self.latencies = {**DEFAULT_LATENCIES, **(self.latencies or {})}
        check_int("default_ntiles", self.default_ntiles, 1)
        check_int("memory_bytes", self.memory_bytes, 1)
        if self.memory_model not in ("cache", "scratchpad"):
            raise ConfigError(
                f"unknown memory model {self.memory_model!r}")
        check_int("scratchpad_latency", self.scratchpad_latency, 1)
        if self.dram_latency_cycles is not None:
            check_int("dram_latency_cycles", self.dram_latency_cycles, 0)
        if self.engine not in ENGINES:
            raise ConfigError(
                f"unknown engine {self.engine!r} "
                f"(expected {'/'.join(ENGINES)})")
        if self.analysis_level not in ("none", "warn", "strict"):
            raise ConfigError(
                f"unknown analysis level {self.analysis_level!r} "
                "(expected none/warn/strict)")

    def params_for(self, task_name: str) -> TaskUnitParams:
        params = self.unit_params.get(task_name)
        if params is None:
            return TaskUnitParams(ntiles=self.default_ntiles)
        return params

    def bind_unit(self, design, task) -> TaskUnitParams:
        """The bound Stage-3 parameters of ``task``'s unit in ``design``."""
        return self.params_for(task.name).bind(design.sizing[task])

    def effective_dram_latency(self) -> int:
        if self.dram_latency_cycles is not None:
            return self.dram_latency_cycles
        return self.board.dram_latency_cycles()
