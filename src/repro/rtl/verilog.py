"""Structural Verilog emission: the post-Chisel view of a design.

The paper's Stage 3 runs "Chisel to Verilog" before bitstream generation
(Fig 3). This renders the walks of :mod:`repro.rtl.emit` — same units,
same bound parameters, same nodes, labels and edges — as
synthesisable-looking structural Verilog: one module per TXU with one
instantiated primitive per dataflow node and ready/valid wiring along the
DFG edges, and a top module instantiating the task units, network and L1
(the DRAM sits behind the AXI master port, so its latency is not a
parameter here).
"""

from __future__ import annotations

from repro.accel.generator import GeneratedDesign
from repro.passes.taskgraph import Task
from repro.rtl.emit import bound_units, ident, txu_nodes

_TXU_PORTS = """\
module {name}_txu (
  input  wire        clock,
  input  wire        reset,
  // task-unit interface
  input  wire        task_valid,
  output wire        task_ready,
  output wire        done_valid,
  input  wire        done_ready,
  // data-box interface
  output wire        mem_req_valid,
  input  wire        mem_req_ready,
  input  wire        mem_resp_valid,
  output wire        mem_resp_ready
);
"""

_TOP_PORTS = """\
module {name}_accelerator (
  input  wire clock,
  input  wire reset,
  // AXI master to DRAM
  output wire axi_arvalid,
  input  wire axi_arready,
  input  wire axi_rvalid,
  output wire axi_rready,
  // host mailbox
  input  wire host_spawn_valid,
  output wire host_spawn_ready,
  output wire host_done_valid,
  input  wire host_done_ready
);
"""

def emit_txu_verilog(task: Task) -> str:
    """One TXU as a structural Verilog module."""
    wires, insts = [], []
    for block_name, nodes in txu_nodes(task):
        insts.append(f"  // ---- block {block_name} ----")
        for node, comp, label, deps in nodes:
            width = max(1, getattr(node.inst.type, "size_bytes", 4) * 8)
            wires += [f"  wire [{width - 1}:0] {label}_data;",
                      f"  wire {label}_valid, {label}_ready;"]
            ports = [".clock(clock)", ".reset(reset)"]
            for port, wire in [*((f"in{i}", src) for i, src in enumerate(deps)),
                               ("out", label)]:
                ports += (f".{port}_data({wire}_data)", f".{port}_valid({wire}_valid)",
                          f".{port}_ready({wire}_ready)")
            insts += [f"  tapas_{comp.lower()} #(.ID({node.index})) {label} (",
                      "    " + ",\n    ".join(ports),
                      "  );  // " + node.inst.opcode]
    return "\n".join([_TXU_PORTS.format(name=ident(task.name)),
                      *wires, "", *insts, "endmodule"])


def emit_top_verilog(design: GeneratedDesign, config=None) -> str:
    """The accelerator top: task units + network + shared L1 + AXI."""
    config, units = bound_units(design, config)
    cache = config.cache
    lines = [
        _TOP_PORTS.format(name=ident(design.module.name)),
        f"  tapas_cache #(.SIZE_BYTES({cache.size_bytes}), "
        f".LINE_BYTES({cache.line_bytes}), .WAYS({cache.associativity}), "
        f".MSHRS({cache.mshr_count})) l1 (.clock(clock), .reset(reset));",
        f"  tapas_tasknetwork #(.UNITS({len(units)})) net "
        "(.clock(clock), .reset(reset));",
        "",
    ]
    for task, params in units:
        lines += [
            f"  tapas_taskunit #(.SID({task.sid}), .NTASKS({params.queue_depth}), "
            f".NTILES({params.ntiles})) u_{ident(task.name)} (",
            "    .clock(clock), .reset(reset),",
            f"    .spawn_in(net.spawn_out[{task.sid}]),",
            f"    .join_in(net.join_out[{task.sid}]),",
            f"    .mem(l1.cpu[{task.sid}])",
            f"  );  // task {task.name}"]
    return "\n\n".join(
        [f"// TAPAS-generated Verilog for '{design.module.name}'",
         "\n".join(lines + ["endmodule"]),
         *map(emit_txu_verilog, design.graph.tasks)])
