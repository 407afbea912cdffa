"""FPGA resource model: ALMs, registers, block RAMs per generated design.

Stands in for Quartus synthesis. The linear structure mirrors how the
TAPAS microarchitecture composes — per-design fixed logic, per-task-unit
control, per-tile datapath, per-operation functional units — and the
coefficients are calibrated against the paper's Table III points
(1/10 tiles x 1/50 ops on Cyclone V):

    ALM(t, i) ~ 670 + 610*t + 33.5*t*i
    Reg(t, i) ~ 633 + 749*t + 42.8*t*i

Block RAM follows the task queues (entry storage + suspended-context
state) and per-instance frame memory — which is exactly where the
paper's recursive benchmarks spend their 62-74 M20Ks (Table IV).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.accel.accelerator import Accelerator
from repro.ir.values import Value
from repro.memory.cache import Cache

M20K_BITS = 20 * 1024

#: ALMs per dataflow operation, by functional-unit class
ALM_PER_OP = {
    "alu": 33, "gep": 25, "mul": 150, "div": 400,
    "falu": 430, "fmul": 390, "fdiv": 880,
    "load": 110, "store": 110,
    "regread": 18, "regwrite": 18, "nop": 8,
    "control": 18, "spawn": 48, "sync": 28, "call": 48,
}
#: registers per operation (pipeline staging of the ready/valid fabric)
REG_PER_OP = {
    "alu": 43, "gep": 34, "mul": 120, "div": 300,
    "falu": 350, "fmul": 330, "fdiv": 700,
    "load": 130, "store": 130,
    "regread": 24, "regwrite": 24, "nop": 10,
    "control": 26, "spawn": 60, "sync": 36, "call": 60,
}

ALM_TILE_BASE = 130         # handshake FSMs, issue logic per tile
ALM_MEMNET_PER_TILE = 135   # data-box share + global arbitration slice
ALM_UNIT_CTRL = 120         # task queue control, spawn/sync ports
ALM_DESIGN_BASE = 150       # AXI interface, host mailbox, clocking

REG_TILE_BASE = 200
REG_MEMNET_PER_TILE = 140
REG_UNIT_CTRL = 140
REG_DESIGN_BASE = 120

#: bytes of queue metadata per entry beyond the Args RAM
QUEUE_META_BYTES = 16
#: bytes reserved per entry for suspended execution context (env + regs)
SUSPEND_STATE_BYTES = 32


@dataclass
class UnitResources:
    """Per-task-unit accounting, for the Fig 14 breakdown."""

    name: str
    ntiles: int
    ctrl_alms: int
    tile_alms: int          # all tiles together
    memnet_alms: int
    ctrl_regs: int
    tile_regs: int
    memnet_regs: int
    ram_bits: int           # queue entries + frames; pooled into M20Ks
    is_spawner: bool        # loop-control / parent units vs leaf workers


@dataclass
class ResourceReport:
    """Design-level totals plus the Fig 14 sub-block breakdown."""

    alms: int
    regs: int
    brams: int
    units: List[UnitResources] = field(default_factory=list)
    cache_brams: int = 0

    def breakdown(self) -> Dict[str, int]:
        """ALMs by sub-block, Fig 14's categories."""
        tiles = sum(u.tile_alms for u in self.units if not u.is_spawner)
        parallel_for = sum(u.tile_alms for u in self.units if u.is_spawner)
        task_ctrl = sum(u.ctrl_alms for u in self.units)
        mem_arb = sum(u.memnet_alms for u in self.units)
        misc = self.alms - tiles - parallel_for - task_ctrl - mem_arb
        return {
            "tiles": tiles,
            "parallel_for": parallel_for,
            "task_ctrl": task_ctrl,
            "mem_arb": mem_arb,
            "misc": misc,
        }

    def chip_percent(self, alm_capacity: int) -> float:
        return 100.0 * self.alms / alm_capacity


def _value_bytes(value: Value, ranges=None) -> int:
    if ranges is not None:
        bits = ranges.bits_of(value)
        if bits is not None:
            return max(1, min(-(-bits // 8), value.type.size_bytes))
    return max(1, value.type.size_bytes)


#: functional-unit classes whose datapath scales with operand width;
#: FP units, memory ports and control FSMs are fixed-width blocks
WIDTH_SCALED_OPS = frozenset({"alu", "mul", "div", "regread", "regwrite"})
#: narrowest datapath worth instantiating separately
MIN_OP_BITS = 4


def _node_bits(node, ranges) -> Optional[int]:
    """Datapath width of one DFG node under the inferred ranges: the
    widest of its (integer) result and operands, None when nothing
    integer-typed is involved."""
    from repro.ir.instructions import Load
    from repro.ir.types import IntType

    inst = node.inst
    widths = []
    if node.kind in ("regread", "regwrite"):
        cell = inst.pointer
        bits = ranges.cell_bits(cell)
        if bits is not None:
            widths.append(bits)
        if isinstance(inst, Load) and isinstance(inst.type, IntType):
            declared = inst.type.bits
            widths = [min(w, declared) for w in widths] or [declared]
    else:
        values = [inst] + list(inst.operands)
        for value in values:
            if not isinstance(value.type, IntType):
                continue
            bits = ranges.bits_of(value)
            declared = value.type.bits
            widths.append(min(bits, declared) if bits else declared)
    if not widths:
        return None
    return max(MIN_OP_BITS, max(widths))


def _op_cost(node, table, default, ranges) -> int:
    cost = table.get(node.kind, default)
    if ranges is None or node.kind not in WIDTH_SCALED_OPS:
        return cost
    bits = _node_bits(node, ranges)
    if bits is None:
        return cost
    # LUT/carry-chain area of integer datapaths grows ~linearly in width;
    # 32 bits is the calibration point of the coefficient table
    return max(1, round(cost * bits / 32.0))


def _unit_resources(unit, include_suspend_state: bool = True,
                    ranges=None) -> UnitResources:
    task = unit.task
    op_alms = 0
    op_regs = 0
    for dfg in task.dfgs.values():
        for node in dfg.nodes:
            op_alms += _op_cost(node, ALM_PER_OP, 30, ranges)
            op_regs += _op_cost(node, REG_PER_OP, 40, ranges)

    ntiles = len(unit.tiles)
    tile_alms = ntiles * (ALM_TILE_BASE + op_alms)
    tile_regs = ntiles * (REG_TILE_BASE + op_regs)
    memnet_alms = ntiles * ALM_MEMNET_PER_TILE
    memnet_regs = ntiles * REG_MEMNET_PER_TILE

    # queue storage: Args RAM + metadata + suspended context, in M20Ks
    args_bytes = sum(_value_bytes(v, ranges) for v in task.args)
    entry_bytes = args_bytes + QUEUE_META_BYTES
    if include_suspend_state and task.spawns:
        entry_bytes += SUSPEND_STATE_BYTES
    queue_bits = unit.queue.depth * entry_bytes * 8
    frame_bits = unit.queue.depth * task.frame_size * 8

    return UnitResources(
        name=task.name,
        ntiles=ntiles,
        ctrl_alms=ALM_UNIT_CTRL,
        tile_alms=tile_alms,
        memnet_alms=memnet_alms,
        ctrl_regs=REG_UNIT_CTRL,
        tile_regs=tile_regs,
        memnet_regs=memnet_regs,
        ram_bits=queue_bits + frame_bits,
        is_spawner=bool(task.spawns),
    )


def estimate_resources(accel: Accelerator,
                       include_cache: bool = False,
                       width_aware: bool = False,
                       ranges=None) -> ResourceReport:
    """Estimate post-synthesis resources for an elaborated accelerator.

    ``include_cache`` adds the data-array M20Ks of every elaborated L1
    bank (Table V reports them; Table III/IV count only the task logic).

    ``width_aware`` sizes integer datapaths and Args RAM entries by the
    bitwidths the value-range analysis proves sufficient instead of the
    declared (uniform 32/64-bit) type widths; pass ``ranges`` to reuse an
    existing :class:`~repro.analysis.ranges.ModuleRanges`.
    """
    if width_aware and ranges is None:
        from repro.analysis.ranges import infer_design_ranges

        ranges = infer_design_ranges(accel.design)
    if not width_aware:
        ranges = None
    units = [_unit_resources(u, ranges=ranges) for u in accel.units]
    alms = ALM_DESIGN_BASE + sum(u.ctrl_alms + u.tile_alms + u.memnet_alms
                                 for u in units)
    regs = REG_DESIGN_BASE + sum(u.ctrl_regs + u.tile_regs + u.memnet_regs
                                 for u in units)
    # queue/frame storage pools into shared M20K blocks at design level
    brams = max(1, -(-sum(u.ram_bits for u in units) // M20K_BITS))
    cache_brams = 0
    if include_cache:
        # each L1 (or L1 bank) elaborated has its own data array
        cache_brams = sum(-(-c.params.size_bytes * 8 // M20K_BITS)
                          for c in accel.sim.components if isinstance(c, Cache))
        brams += cache_brams
    return ResourceReport(alms=alms, regs=regs, brams=brams, units=units,
                          cache_brams=cache_brams)
