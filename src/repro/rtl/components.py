"""The hardware component library the generated RTL instantiates.

Mirrors the paper's released Chisel library: task units, data boxes,
the arbiter/demux network, the memory blocks and the TXU dataflow nodes.
Each entry carries the module name, its parameter list and a one-line
description. :data:`TEMPLATES` maps every component class ``Accelerator``
elaborates to its library module and reads the parameter values off the
component itself; the emitter (`repro.rtl.emit`) instantiates them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.memory.arbiter import Demux, RoundRobinArbiter
from repro.memory.cache import Cache
from repro.memory.databox import DataBox
from repro.memory.dram import DRAMModel
from repro.memory.scratchpad import Scratchpad
from repro.task.task_unit import TaskUnit


@dataclass(frozen=True)
class ComponentDef:
    """One library module."""

    name: str
    params: Tuple[str, ...]
    description: str


LIBRARY: Dict[str, ComponentDef] = {
    "TaskUnit": ComponentDef(
        "TaskUnit", ("SID", "Ntasks", "Ntiles", "ArgsBits"),
        "task queue (Args RAM, ParentID, Child# counters), spawn/sync ports, Ntiles TXUs"),
    "TXU": ComponentDef("TXU", ("Nodes",), "dynamically scheduled dataflow tile"),
    "DataBox": ComponentDef(
        "DataBox", ("Ports", "Entries"), "in-arbiter tree + allocator table + out-demux (Fig 8)"),
    "Arbiter": ComponentDef("Arbiter", ("Inputs", "Levels"), "N-to-1 round-robin, tree stages"),
    "Demux": ComponentDef(
        "Demux", ("Outputs", "Levels", "RouteField", "RouteDivisor", "RouteMask"),
        "1-to-N router to out[field / divisor & mask]: by SID, port, tag or bank"),
    "Cache": ComponentDef(
        "Cache", ("SizeBytes", "LineBytes", "Ways", "MSHRs", "HitLatency"),
        "write-back L1 (or one bank of it), AXI master to DRAM"),
    "NastiMemSlave": ComponentDef("NastiMemSlave", ("LatencyCycles",), "AXI DRAM model"),
    "Scratchpad": ComponentDef("Scratchpad", ("LatencyCycles",), "fixed-latency SRAM"),
    # dataflow node primitives (Fig 6)
    "ALU": ComponentDef("ALU", ("Op", "Bits"), "integer/logic unit"),
    "Mul": ComponentDef("Mul", ("Bits",), "pipelined multiplier"),
    "Div": ComponentDef("Div", ("Bits",), "iterative divider"),
    "FPU": ComponentDef("FPU", ("Op",), "single-precision FP unit"),
    "GEP": ComponentDef("GEP", ("Strides",), "address generator"),
    "Load": ComponentDef("Load", ("Bytes",), "load node -> data box"),
    "Store": ComponentDef("Store", ("Bytes",), "store node -> data box"),
    "RegSlot": ComponentDef("RegSlot", ("Bits",), "task-local register"),
    "Branch": ComponentDef("Branch", (), "control steering node"),
    "SpawnNode": ComponentDef("SpawnNode", ("ArgsBits",), "detach site"),
    "SyncNode": ComponentDef("SyncNode", (), "sync wait node"),
    "CallNode": ComponentDef("CallNode", ("ArgsBits",), "blocking call site"),
}

#: elaborated component class -> (library module, its parameter values
#: read off the component, in the order of the module's ``params``)
TEMPLATES = {
    TaskUnit: ("TaskUnit", lambda unit: (
        unit.sid, unit.queue.depth, len(unit.tiles),
        sum(max(1, v.type.size_bytes) * 8 for v in unit.task.args))),
    DataBox: ("DataBox", lambda box: (len(box.tile_request), box.entries)),
    RoundRobinArbiter: ("Arbiter", lambda arb: (len(arb.inputs), arb.levels)),
    Demux: ("Demux", lambda d: (len(d.outputs), d.levels, d.field, d.divisor, d.mask)),
    Cache: ("Cache", lambda cache: (
        cache.params.size_bytes, cache.params.line_bytes,
        cache.params.associativity, cache.params.mshr_count,
        cache.params.hit_latency)),
    DRAMModel: ("NastiMemSlave", lambda dram: (dram.latency,)),
    Scratchpad: ("Scratchpad", lambda spm: (spm.latency,)),
}

#: dataflow-node kind -> library module
KIND_TO_COMPONENT = {
    "alu": "ALU", "mul": "Mul", "div": "Div",
    "falu": "FPU", "fmul": "FPU", "fdiv": "FPU", "gep": "GEP",
    "load": "Load", "store": "Store",
    "regread": "RegSlot", "regwrite": "RegSlot", "nop": "RegSlot",
    "control": "Branch", "spawn": "SpawnNode", "sync": "SyncNode",
    "call": "CallNode",
}


def component_for_kind(kind: str) -> ComponentDef:
    return LIBRARY[KIND_TO_COMPONENT.get(kind, "ALU")]
