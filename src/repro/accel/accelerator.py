"""Stage 3: elaborate a generated design into a runnable accelerator.

This is the Fig 4 top level: task units wired to the spawn/join network,
per-unit data boxes merging into the shared L1, the L1 backed by DRAM over
AXI, and a host interface that starts root tasks through shared memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.accel.config import AcceleratorConfig
from repro.accel.generator import GeneratedDesign, generate
from repro.errors import SynthesisError
from repro.ir.module import Module
from repro.memory.arbiter import Demux, RoundRobinArbiter
from repro.memory.backing import MainMemory
from repro.memory.cache import Cache
from repro.memory.databox import DataBox
from repro.memory.dram import DRAMModel
from repro.sim import Simulator, Trace
from repro.task.messages import SpawnMessage
from repro.task.network import TaskNetwork
from repro.task.task_unit import TaskUnit


@dataclass
class RunResult:
    """Outcome of one accelerator offload."""

    cycles: int
    retval: Any
    stats: Dict[str, Any]

    def time_seconds(self, mhz: float) -> float:
        return self.cycles / (mhz * 1e6)


class Accelerator:
    """A fully elaborated parallel accelerator plus its host interface."""

    def __init__(self, design: GeneratedDesign, config: AcceleratorConfig,
                 trace: Optional[Trace] = None, observer=None):
        self.design = design
        self.config = config
        self.trace = trace
        self.observer = observer
        self.sim = Simulator(design.module.name, engine=config.engine)
        if observer is not None:
            self.sim.attach_observer(observer)
        self.memory = MainMemory(config.memory_bytes)
        self._assign_globals(design.module)

        num_units = len(design.compiled)
        self.network = TaskNetwork(self.sim, "tasknet", num_units)

        # -- shared memory backend: single-ported L1+DRAM (the evaluated
        # model), a banked L1 (§VI future work), or a scratchpad
        self.cache = None
        self.dram = None
        self.scratchpad = None
        self.banked = None
        if config.memory_model == "cache" and config.cache.banks > 1:
            from repro.memory.banked import BankedMemorySystem

            self.banked = BankedMemorySystem(
                self.sim, config.cache, self.memory, num_units,
                dram_latency=config.effective_dram_latency())
            self.dram = self.banked.dram
            unit_req = self.banked.unit_request
            unit_resp = self.banked.unit_response
        else:
            cache_req = self.sim.add_channel("cache.req", 4)
            cache_resp = self.sim.add_channel("cache.resp", 4)
            if config.memory_model == "cache":
                dram_req = self.sim.add_channel("dram.req", 4)
                dram_resp = self.sim.add_channel("dram.resp", 4)
                self.cache = self.sim.add_component(Cache(
                    "L1", config.cache, self.memory,
                    cache_req, cache_resp, dram_req, dram_resp))
                self.dram = self.sim.add_component(DRAMModel(
                    "DRAM", dram_req, dram_resp,
                    latency=config.effective_dram_latency()))
            else:
                from repro.memory.scratchpad import Scratchpad

                self.scratchpad = self.sim.add_component(Scratchpad(
                    "SPM", self.memory, cache_req, cache_resp,
                    latency=config.scratchpad_latency))
            unit_req = [self.sim.add_channel(f"u{i}.memreq", 2)
                        for i in range(num_units)]
            unit_resp = [self.sim.add_channel(f"u{i}.memresp", 2)
                         for i in range(num_units)]
            self.sim.add_component(RoundRobinArbiter(
                "memnet.arb", unit_req, cache_req))
            self.sim.add_component(Demux(
                "memnet.demux", cache_resp, unit_resp))

        # -- task units -------------------------------------------------------
        self.units: List[TaskUnit] = []
        self.databoxes: List[DataBox] = []
        for i, compiled in enumerate(design.compiled):
            params = config.bind_unit(design, compiled.task)

            box = DataBox(self.sim, f"u{i}.databox", i, params.ntiles,
                          unit_req[i], unit_resp[i],
                          entries=params.databox_entries)
            self.databoxes.append(box)

            frame_base = 0
            if compiled.frame_size > 0:
                frame_base = self.memory.reserve_region(
                    params.queue_depth * compiled.frame_size)

            unit = TaskUnit(
                f"T{i}:{compiled.name}", compiled,
                spawn_in=self.network.spawn_in[i],
                join_in=self.network.join_in[i],
                spawn_out=self.network.spawn_out[i],
                join_out=self.network.join_out[i],
                tile_requests=box.tile_request,
                tile_responses=box.tile_response,
                queue_depth=params.queue_depth, policy=params.policy,
                max_inflight_per_tile=params.max_inflight_per_tile,
                frame_base=frame_base, frame_size=compiled.frame_size,
                port=i, latencies=config.latencies, trace=trace)
            self.sim.add_component(unit)
            self.units.append(unit)

        self._unit_by_name = {u.compiled.name: u for u in self.units}

    # -- host interface ---------------------------------------------------

    def _assign_globals(self, module: Module):
        for var in module.globals:
            var.address = self.memory.alloc(var.size_bytes)

    def unit(self, name: str) -> TaskUnit:
        unit = self._unit_by_name.get(name)
        if unit is None:
            raise SynthesisError(f"no task unit named {name}")
        return unit

    def run(self, function_name: str, args, max_cycles: int = 20_000_000) -> RunResult:
        """Offload one root-task invocation and run it to completion.

        ``args`` are Python values matching the function signature
        (pointers are integer addresses from :attr:`memory`).
        """
        from repro.telemetry.spans import TRACER

        root = self.unit(function_name)
        root.root_done = False
        root.root_retval = None
        self.network.host_spawn.push(SpawnMessage(
            dest_sid=root.sid, args=tuple(args),
            parent_sid=None, parent_dyid=None))
        with TRACER.span("simulate", category="sim", entry=function_name,
                         engine=self.sim.engine):
            cycles = self.sim.run(lambda: root.root_done,
                                  max_cycles=max_cycles)
        # drain stragglers (posted joins already counted; writebacks etc.)
        return RunResult(cycles=cycles, retval=root.root_retval,
                         stats=self.collect_stats())

    def collect_stats(self) -> Dict[str, Any]:
        stats = {
            "cycles": self.sim.cycle,
            "engine": self.sim.engine_stats(),
            "network": self.network.stats(),
            "units": {u.name: u.stats() for u in self.units},
        }
        if self.cache is not None:
            stats["cache"] = self.cache.stats()
        if self.banked is not None:
            stats["cache"] = self.banked.stats()
        if self.dram is not None:
            stats["dram"] = self.dram.stats()
        if self.scratchpad is not None:
            stats["scratchpad"] = self.scratchpad.stats()
        channels = self.sim.channel_stats()
        if channels:
            stats["channels"] = channels
        if self.observer is not None:
            stats["obs"] = self.observer.as_dict()
        return stats


def _analysis_gate(design, level: str, module_name: str, config=None):
    """Run the static race analysis and the hardware lint on the generated
    design and either warn or refuse to elaborate, per
    ``AcceleratorConfig.analysis_level``.

    The lint runs without a designated entry, so its deadlock rule hardens
    to an error for any task that can never complete once spawned — such a
    design needs ``analysis_level="none"`` (and a bounded ``max_cycles``)
    to be elaborated at all.
    """
    import sys

    from repro.analysis import analyze_design
    from repro.analysis.diagnostics import SEVERITY_ERROR, SEVERITY_WARNING
    from repro.analysis.lint import lint_design
    from repro.errors import AnalysisError

    report = analyze_design(design)
    report.extend(lint_design(design, config=config))
    threshold = SEVERITY_ERROR if level == "warn" else SEVERITY_WARNING
    if report.fails(threshold):
        raise AnalysisError(
            f"analysis level {level!r} refused to build {module_name}: "
            f"{report.count(SEVERITY_ERROR)} error(s), "
            f"{report.count(SEVERITY_WARNING)} warning(s)\n"
            + report.render_text(module_name),
            diagnostics=report.sorted())
    for diag in report.sorted():
        print(diag.render(), file=sys.stderr)


def build_accelerator(module: Module, config: Optional[AcceleratorConfig] = None,
                      trace: Optional[Trace] = None,
                      observer=None) -> Accelerator:
    """The complete toolchain: parallel IR in, elaborated accelerator out."""
    from repro.telemetry.spans import TRACER

    config = config or AcceleratorConfig()
    design = generate(module)
    if config.analysis_level != "none":
        with TRACER.span("analysis.gate", category="generate",
                         module=module.name):
            _analysis_gate(design, config.analysis_level, module.name,
                           config=config)
    with TRACER.span("elaborate", category="generate", module=module.name):
        return Accelerator(design, config, trace=trace, observer=observer)
