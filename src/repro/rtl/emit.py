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
from repro.rtl.components import component_for_kind
from repro.task.program import CompiledTask


def bound_units(design: GeneratedDesign, config=None):
    """The top-level walk: ``config`` (default ``AcceleratorConfig()``)
    and ``(task, bound TaskUnitParams)`` for every unit of ``design``."""
    config = config or AcceleratorConfig()
    return config, [(ct, config.bind_unit(design, ct.task))
                    for ct in design.compiled]


def txu_nodes(compiled: CompiledTask):
    """The TXU walk: per block its name and, per dataflow node, ``(node,
    library component, <block>_n<idx> label, labels it depends on)``."""
    for block in compiled.blocks:
        prefix = ident(block.name)
        yield block.name, [
            (node, component_for_kind(node.kind).name,
             f"{prefix}_n{node.index}", [f"{prefix}_n{d}" for d in node.deps])
            for node in compiled.dfgs[block].nodes]


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
    for ct, params in units:
        args_bits = sum(max(1, v.type.size_bytes) * 8 for v in ct.arg_values)
        lines.append(
            f"  val Task{ct.sid} = Module(new TaskUnit(Nt={params.queue_depth}, "
            f"Ntiles={params.ntiles}, ArgsBits={args_bits}, "
            f"dataflow=new {_camel(ct.name)}TXU()))  // {ct.name}")
    lines += ["", "  // spawn / sync wiring (SID-routed network)"]
    for ct in design.compiled:
        for spec in ct.spawn_specs.values():
            lines.append(
                f"  Task{spec.dest_sid}.io.detach.in <> "
                f"Task{ct.sid}.io.spawn.out  // {ct.name} spawns T{spec.dest_sid}")
            lines.append(
                f"  Task{ct.sid}.io.sync.in <> Task{spec.dest_sid}.io.out")
        for spec in ct.call_specs.values():
            lines.append(
                f"  Task{spec.dest_sid}.io.detach.in <> "
                f"Task{ct.sid}.io.call.out  // {ct.name} calls T{spec.dest_sid}")
    lines += ["", "  // data boxes -> shared cache"]
    lines += [f"  SharedL1cache.io.cpu({ct.sid}) <> Task{ct.sid}.io.mem"
              for ct in design.compiled]
    return "\n".join(lines + ["}"])


def emit_txu(compiled: CompiledTask) -> str:
    """Render a Fig 6-style TXU module: one node per operation, decoupled
    links along the dataflow edges."""
    lines = [f"class {_camel(compiled.name)}TXU(implicit p: Parameters) "
             "extends TaskDataflow {"]
    for block_name, nodes in txu_nodes(compiled):
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
         emit_top(design, config), *map(emit_txu, design.compiled)])


def _camel(name: str) -> str:
    return "".join(part.capitalize() for part in
                   name.replace(".", "_").split("_"))
