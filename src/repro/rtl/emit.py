"""Chisel-flavoured RTL emission for a generated design.

TAPAS's final artifact is parameterised Chisel (paper Fig 4/Fig 6). This
emitter renders the same two views from our Stage-1/2/3 output:

* the **top level** — the netlist ``Accelerator(design, config)``
  elaborates: one library module per component (task units, data boxes,
  the SID-routed arbiter/demux network, the L1 banks or scratchpad, the
  DRAM) with the parameters it was built with, one wire per channel;
* a **per-task TXU module** — one dataflow node instance per operation,
  connected by decoupled (ready/valid) links following the DFG edges.

Each view is walked once (:func:`netlist`, :func:`txu_nodes`) and
rendered twice: as Chisel here, as Verilog in :mod:`repro.rtl.verilog`.
The output is for inspection and diffing — the cycle model in
:mod:`repro.sim` is the executable form of the same netlist.
"""

from __future__ import annotations

import json
from weakref import WeakKeyDictionary

from repro.accel.accelerator import Accelerator
from repro.accel.config import AcceleratorConfig
from repro.accel.generator import GeneratedDesign
from repro.analysis.netlist import build_channel_graph
from repro.passes.taskgraph import Task
from repro.rtl.components import LIBRARY, TEMPLATES, component_for_kind

#: design -> (repr of the config of its last walk, that walk)
_WALKS = WeakKeyDictionary()


def netlist(design: GeneratedDesign, config=None):
    """The top-level walk over ``Accelerator(design, config)`` (default
    ``AcceleratorConfig()``): its channels as ``(wire, kind)`` — kind
    ``"wire"``, or ``"input"``/``"output"`` for a top-level port — and
    per component ``(instance, library module, [(param, literal)], [(port,
    wire)])``, ports ``in<i>``/``out<j>`` in ``Component.ports()`` order.
    The Chisel and the Verilog top of one design and config share it."""
    config = config or AcceleratorConfig()
    key = repr(config)
    last = _WALKS.get(design)
    if last is not None and last[0] == key:
        return last[1]
    acc = Accelerator(design, config)
    graph = build_channel_graph(acc.sim, external=[acc.network.host_spawn])
    wire = {ch: ident(ch.name) for ch in graph.channels}
    wires = [(wire[ch], "wire" if ch not in graph.external else
              "input" if ch in graph.consumers else "output")
             for ch in graph.channels]
    instances = []
    for component in graph.components:
        inputs, outputs = component.ports()
        module, values = TEMPLATES[type(component)]
        instances.append((
            ident(component.name), module,
            list(zip(LIBRARY[module].params, map(json.dumps, values(component)))),
            [(f"in{i}", wire[ch]) for i, ch in enumerate(inputs)]
            + [(f"out{i}", wire[ch]) for i, ch in enumerate(outputs)]))
    _WALKS[design] = key, (wires, instances)
    return wires, instances


def txu_nodes(task: Task):
    """The TXU walk: per block its name and, per dataflow node, ``(node,
    library component, <block>_n<idx> label, labels it depends on)``."""
    for block in task.blocks:
        prefix = ident(block.name)
        yield block.name, [
            (node, component_for_kind(node.kind).name,
             f"{prefix}_n{node.index}", [f"{prefix}_n{d}" for d in node.deps])
            for node in task.dfgs[block].nodes]


def ident(name: str) -> str:
    return name.replace(".", "_").replace("-", "_").replace(":", "_")


_CHANNEL = {"wire": "Wire(Decoupled(UInt()))",
            "input": "IO(Flipped(Decoupled(UInt())))",
            "output": "IO(Decoupled(UInt()))"}


def emit_top(design: GeneratedDesign, config=None) -> str:
    """Render the Fig 4-style top level in Chisel-flavoured pseudocode."""
    wires, instances = netlist(design, config)
    lines = [f"class {_camel(design.module.name)}Accelerator(implicit p: Parameters) "
             "extends Module {"]
    lines += [f"  val {wire} = {_CHANNEL[kind]}" for wire, kind in wires]
    for name, module, params, ports in instances:
        args = ", ".join([f"{param}={value}" for param, value in params])
        lines.append(f"  val {name} = Module(new {module}({args}))")
        lines += [f"  {name}.io.{port} <> {wire}" for port, wire in ports]
    return "\n".join(lines + ["}"])


def emit_txu(task: Task) -> str:
    """Render a Fig 6-style TXU module: one node per operation, decoupled
    links along the dataflow edges."""
    lines = [f"class {_camel(task.name)}TXU(implicit p: Parameters) "
             "extends TaskDataflow {"]
    for block_name, nodes in txu_nodes(task):
        lines.append(f"  // ---- block {block_name} ----")
        lines += [f"  val {label} = Module(new {comp}(ID={node.index}))"
                  f"  // {node.inst.opcode}" for node, comp, label, _ in nodes]
        lines += [f"  {label}.io.in <> {src}.io.out"
                  for _, _, label, deps in nodes for src in deps]
    return "\n".join(lines + ["}"])


def emit_design(design: GeneratedDesign, config=None) -> str:
    """The complete RTL dump: top level plus every TXU."""
    return "\n\n".join(
        [f"// TAPAS-generated RTL for module '{design.module.name}'",
         emit_top(design, config), *map(emit_txu, design.graph.tasks)])


def _camel(name: str) -> str:
    return "".join(part.capitalize() for part in
                   name.replace(".", "_").split("_"))
