"""Chisel-flavoured RTL emission for a generated design.

TAPAS's final artifact is parameterised Chisel (paper Fig 4/Fig 6). This
emitter renders the same two views from our Stage-1/2 output:

* the **top level** — task units declared with their (Ntasks, Ntiles)
  parameters, wired spawn->detach / sync->reattach, data boxes merged
  into the shared L1, L1 on the AXI DRAM master;
* a **per-task TXU module** — one dataflow node instance per operation,
  connected by decoupled (ready/valid) links following the DFG edges.

The output is for inspection and diffing, not re-simulation — the cycle
model in :mod:`repro.sim` is the executable form of the same netlist.
"""

from __future__ import annotations

from typing import List

from repro.accel.generator import GeneratedDesign
from repro.ir.values import Value
from repro.rtl.components import KIND_TO_COMPONENT
from repro.task.program import CompiledTask


def _args_bits(values: List[Value]) -> int:
    return sum(max(1, v.type.size_bytes) * 8 for v in values)


def emit_top(design: GeneratedDesign, queue_depths=None,
             tile_counts=None) -> str:
    """Render the Fig 4-style top level in Chisel-flavoured pseudocode."""
    queue_depths = queue_depths or {}
    tile_counts = tile_counts or {}
    name = design.module.name
    lines = [
        f"class {_camel(name)}Accelerator(implicit p: Parameters) extends Module {{",
        "  // shared memory system",
        "  val SharedL1cache = Module(new Cache(SizeBytes=16384, LineBytes=32, Ways=4, MSHRs=4))",
        "  val DRAM = Module(new NastiMemSlave(LatencyCycles=40))",
        "  DRAM.io <> SharedL1cache.io.axi",
        "",
        "  // task units (one per static task)",
    ]
    for ct in design.compiled:
        sizing = design.sizing[ct.task]
        nt = queue_depths.get(ct.name, sizing.recommended_queue_depth)
        tiles = tile_counts.get(ct.name, 1)
        lines.append(
            f"  val Task{ct.sid} = Module(new TaskUnit(Nt={nt}, "
            f"Ntiles={tiles}, ArgsBits={_args_bits(ct.arg_values)}, "
            f"dataflow=new {_camel(ct.name)}TXU()))  // {ct.name}")
    lines.append("")
    lines.append("  // spawn / sync wiring (SID-routed network)")
    for ct in design.compiled:
        for detach, spec in ct.spawn_specs.items():
            lines.append(
                f"  Task{spec.dest_sid}.io.detach.in <> "
                f"Task{ct.sid}.io.spawn.out  // {ct.name} spawns T{spec.dest_sid}")
            lines.append(
                f"  Task{ct.sid}.io.sync.in <> Task{spec.dest_sid}.io.out")
        for call, spec in ct.call_specs.items():
            lines.append(
                f"  Task{spec.dest_sid}.io.detach.in <> "
                f"Task{ct.sid}.io.call.out  // {ct.name} calls T{spec.dest_sid}")
    lines.append("")
    lines.append("  // data boxes -> shared cache")
    for ct in design.compiled:
        lines.append(
            f"  SharedL1cache.io.cpu({ct.sid}) <> Task{ct.sid}.io.mem")
    lines.append("}")
    return "\n".join(lines)


def emit_txu(compiled: CompiledTask) -> str:
    """Render a Fig 6-style TXU module: one node per operation, decoupled
    links along the dataflow edges."""
    lines = [f"class {_camel(compiled.name)}TXU(implicit p: Parameters) "
             "extends TaskDataflow {"]
    node_names = {}
    for block in compiled.blocks:
        dfg = compiled.dfgs[block]
        lines.append(f"  // ---- block {block.name} ----")
        for node in dfg.nodes:
            comp = KIND_TO_COMPONENT.get(node.kind, "ALU")
            label = f"{block.name}_n{node.index}"
            node_names[(block, node.index)] = label
            detail = node.inst.opcode
            lines.append(
                f"  val {label} = Module(new {comp}(ID={node.index}))"
                f"  // {detail}")
        for node in dfg.nodes:
            for dep in node.deps:
                src = node_names[(block, dep)]
                dst = node_names[(block, node.index)]
                lines.append(f"  {dst}.io.in <> {src}.io.out")
    lines.append("}")
    return "\n".join(lines)


def emit_design(design: GeneratedDesign) -> str:
    """The complete RTL dump: top level plus every TXU."""
    parts = [f"// TAPAS-generated RTL for module '{design.module.name}'",
             emit_top(design)]
    parts.extend(emit_txu(ct) for ct in design.compiled)
    return "\n\n".join(parts)


def _camel(name: str) -> str:
    return "".join(part.capitalize() for part in
                   name.replace(".", "_").split("_"))
