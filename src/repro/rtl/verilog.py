"""Structural Verilog emission: the post-Chisel view of a design.

The paper's Stage 3 runs "Chisel to Verilog" before bitstream generation
(Fig 3). This renders the walks of :mod:`repro.rtl.emit` — same
components, parameters and channels, same nodes, labels and edges — as
synthesisable-looking structural Verilog: one module per TXU with one
instantiated primitive per dataflow node and ready/valid wiring along the
DFG edges, and a top module with one instance per elaborated component
and one wire per channel.
"""

from __future__ import annotations

import re

from repro.accel.generator import GeneratedDesign
from repro.passes.taskgraph import Task
from repro.rtl.components import LIBRARY
from repro.rtl.emit import ident, netlist, txu_nodes

#: library parameter -> its Verilog name (``SizeBytes`` -> ``SIZE_BYTES``)
_PARAM = {param: re.sub(r"(?<=[a-z])(?=[A-Z])", "_", param).upper()
          for module in LIBRARY.values() for param in module.params}

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
    """The accelerator top: the elaborated netlist, one instance per
    component and one wire per channel, plus every TXU module."""
    wires, instances = netlist(design, config)
    io = ["input  wire clock", "input  wire reset"]
    io += [f"{kind:6} wire {wire}" for wire, kind in wires if kind != "wire"]
    lines = [f"module {ident(design.module.name)}_accelerator (",
             ",\n".join(f"  {port}" for port in io), ");"]
    lines += [f"  wire {wire};" for wire, kind in wires if kind == "wire"]
    for name, module, params, ports in instances:
        args = ", ".join([f".{_PARAM[param]}({value})" for param, value in params])
        connections = ", ".join([f".{port}({wire})" for port, wire in ports])
        lines += [f"  tapas_{module.lower()} #({args}) {name} (",
                  f"    .clock(clock), .reset(reset), {connections});"]
    return "\n\n".join(
        [f"// TAPAS-generated Verilog for '{design.module.name}'",
         "\n".join(lines + ["endmodule"]),
         *map(emit_txu_verilog, design.graph.tasks)])
