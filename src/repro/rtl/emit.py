"""Chisel-flavoured RTL emission for a generated design.

TAPAS's final artifact is parameterised Chisel (paper Fig 4/Fig 6). This
emitter renders the same two views from our Stage-1/2 output:

* the **top level** — task units declared with their (Ntasks, Ntiles)
  parameters, wired spawn->detach / sync->reattach, data boxes merged
  into the shared L1, L1 on the AXI DRAM master;
* a **per-task TXU module** — one dataflow node instance per operation,
  connected by decoupled (ready/valid) links following the DFG edges.

Each view is walked once (:func:`bound_units`, :func:`txu_nodes`) and
rendered twice: as Chisel here, as Verilog in :mod:`repro.rtl.verilog`.
Every parameter printed is the one ``config`` binds, hence the one
``Accelerator`` elaborates; only the shared-L1 memory model is rendered.
The output is for inspection and diffing — the cycle model in
:mod:`repro.sim` is the executable form of the same netlist.
"""

from __future__ import annotations

from repro.accel.config import AcceleratorConfig
from repro.accel.generator import GeneratedDesign
from repro.passes.taskgraph import Task
from repro.rtl.components import component_for_kind


def bound_units(design: GeneratedDesign, config=None):
    """The top-level walk: ``config`` (default ``AcceleratorConfig()``)
    and ``(task, bound TaskUnitParams)`` for every unit of ``design``."""
    config = config or AcceleratorConfig()
    return config, [(task, config.bind_unit(design, task))
                    for task in design.graph.tasks]


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
    return name.replace(".", "_").replace("-", "_")


def emit_top(design: GeneratedDesign, config=None) -> str:
    """Render the Fig 4-style top level in Chisel-flavoured pseudocode."""
    config, units = bound_units(design, config)
    cache = config.cache
    lines = [
        f"class {_camel(design.module.name)}Accelerator(implicit p: Parameters) "
        "extends Module {",
        "  // shared memory system",
        f"  val SharedL1cache = Module(new Cache(SizeBytes={cache.size_bytes}, "
        f"LineBytes={cache.line_bytes}, Ways={cache.associativity}, "
        f"MSHRs={cache.mshr_count}))",
        "  val DRAM = Module(new NastiMemSlave("
        f"LatencyCycles={config.effective_dram_latency()}))",
        "  DRAM.io <> SharedL1cache.io.axi",
        "",
        "  // task units (one per static task)",
    ]
    for task, params in units:
        args_bits = sum(max(1, v.type.size_bytes) * 8 for v in task.args)
        lines.append(
            f"  val Task{task.sid} = Module(new TaskUnit(Nt={params.queue_depth}, "
            f"Ntiles={params.ntiles}, ArgsBits={args_bits}, "
            f"dataflow=new {_camel(task.name)}TXU()))  // {task.name}")
    lines += ["", "  // spawn / sync wiring (SID-routed network)"]
    for task, _ in units:
        for edge in task.spawns.values():
            dest = edge.target.sid
            if edge.is_call:
                lines.append(
                    f"  Task{dest}.io.detach.in <> "
                    f"Task{task.sid}.io.call.out  // {task.name} calls T{dest}")
            else:
                lines.append(
                    f"  Task{dest}.io.detach.in <> "
                    f"Task{task.sid}.io.spawn.out  // {task.name} spawns T{dest}")
                lines.append(
                    f"  Task{task.sid}.io.sync.in <> Task{dest}.io.out")
    lines += ["", "  // data boxes -> shared cache"]
    lines += [f"  SharedL1cache.io.cpu({task.sid}) <> Task{task.sid}.io.mem"
              for task, _ in units]
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
