"""Structural Verilog emission: the post-Chisel view of a design.

The paper's Stage 3 runs "Chisel to Verilog" before bitstream generation
(Fig 3). This emitter renders the same structure as synthesisable-looking
structural Verilog: one module per TXU with one instantiated primitive
per dataflow node, decoupled ready/valid wiring along the DFG edges, and
a top module instantiating the task units, network and memory system.

Like :mod:`repro.rtl.emit` the output exists for inspection/diffing —
the executable form of the netlist is the cycle simulator.
"""

from __future__ import annotations

from typing import List

from repro.accel.generator import GeneratedDesign
from repro.rtl.components import KIND_TO_COMPONENT
from repro.task.program import CompiledTask


def _ident(name: str) -> str:
    return name.replace(".", "_").replace("-", "_")


def _width_of(inst) -> int:
    size = getattr(inst.type, "size_bytes", 4)
    return max(1, size * 8)


def emit_txu_verilog(compiled: CompiledTask) -> str:
    """One TXU as a structural Verilog module."""
    name = _ident(compiled.name)
    lines = [
        f"module {name}_txu (",
        "  input  wire        clock,",
        "  input  wire        reset,",
        "  // task-unit interface",
        "  input  wire        task_valid,",
        "  output wire        task_ready,",
        "  output wire        done_valid,",
        "  input  wire        done_ready,",
        "  // data-box interface",
        "  output wire        mem_req_valid,",
        "  input  wire        mem_req_ready,",
        "  input  wire        mem_resp_valid,",
        "  output wire        mem_resp_ready",
        ");",
        "",
    ]
    wires: List[str] = []
    insts: List[str] = []
    for block in compiled.blocks:
        dfg = compiled.dfgs[block]
        blk = _ident(block.name)
        insts.append(f"  // ---- block {block.name} ----")
        for node in dfg.nodes:
            comp = KIND_TO_COMPONENT.get(node.kind, "ALU").lower()
            label = f"{blk}_n{node.index}"
            width = _width_of(node.inst)
            wires.append(f"  wire [{width - 1}:0] {label}_data;")
            wires.append(f"  wire {label}_valid, {label}_ready;")
            ports = [".clock(clock)", ".reset(reset)"]
            for position, dep in enumerate(node.deps):
                src = f"{blk}_n{dep}"
                ports.append(f".in{position}_data({src}_data)")
                ports.append(f".in{position}_valid({src}_valid)")
                ports.append(f".in{position}_ready({src}_ready)")
            ports.append(f".out_data({label}_data)")
            ports.append(f".out_valid({label}_valid)")
            ports.append(f".out_ready({label}_ready)")
            insts.append(f"  tapas_{comp} #(.ID({node.index})) {label} (")
            insts.append("    " + ",\n    ".join(ports))
            insts.append("  );  // " + node.inst.opcode)
    lines.extend(wires)
    lines.append("")
    lines.extend(insts)
    lines.append("endmodule")
    return "\n".join(lines)


def emit_top_verilog(design: GeneratedDesign, queue_depths=None,
                     tile_counts=None) -> str:
    """The accelerator top: task units + network + shared L1 + AXI."""
    queue_depths = queue_depths or {}
    tile_counts = tile_counts or {}
    top = _ident(design.module.name)
    lines = [
        f"module {top}_accelerator (",
        "  input  wire clock,",
        "  input  wire reset,",
        "  // AXI master to DRAM",
        "  output wire axi_arvalid,",
        "  input  wire axi_arready,",
        "  input  wire axi_rvalid,",
        "  output wire axi_rready,",
        "  // host mailbox",
        "  input  wire host_spawn_valid,",
        "  output wire host_spawn_ready,",
        "  output wire host_done_valid,",
        "  input  wire host_done_ready",
        ");",
        "",
        "  tapas_cache #(.SIZE_BYTES(16384), .LINE_BYTES(32), .WAYS(4),"
        " .MSHRS(4)) l1 (.clock(clock), .reset(reset));",
        "  tapas_tasknetwork #(.UNITS("
        f"{len(design.compiled)})) net (.clock(clock), .reset(reset));",
        "",
    ]
    for ct in design.compiled:
        sizing = design.sizing[ct.task]
        depth = queue_depths.get(ct.name, sizing.recommended_queue_depth)
        tiles = tile_counts.get(ct.name, 1)
        unit = _ident(ct.name)
        lines.append(
            f"  tapas_taskunit #(.SID({ct.sid}), .NTASKS({depth}), "
            f".NTILES({tiles})) u_{unit} (")
        lines.append("    .clock(clock), .reset(reset),")
        lines.append(f"    .spawn_in(net.spawn_out[{ct.sid}]),")
        lines.append(f"    .join_in(net.join_out[{ct.sid}]),")
        lines.append(f"    .mem(l1.cpu[{ct.sid}])")
        lines.append(f"  );  // task {ct.name}")
    lines.append("endmodule")
    parts = [f"// TAPAS-generated Verilog for '{design.module.name}'",
             "\n".join(lines)]
    parts.extend(emit_txu_verilog(ct) for ct in design.compiled)
    return "\n\n".join(parts)
