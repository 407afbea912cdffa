"""Per-block dataflow graphs: the blueprint for each TXU (Stage 2).

TAPAS generates, for every task, a dynamically scheduled dataflow pipeline
over the task's sub-program-dependence-graph (paper §III-C, Fig 6). This
module builds the per-basic-block dataflow graph: nodes are instructions,
edges are the dependencies the ready/valid handshakes must respect.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.ir.basicblock import BasicBlock
from repro.ir.instructions import (
    GEP,
    Alloca,
    BinaryOp,
    Call,
    Cast,
    Detach,
    FCmp,
    ICmp,
    Instruction,
    Load,
    Select,
    Store,
    Sync,
)
from repro.ir.values import Value


def is_register_access(inst: Instruction) -> bool:
    """Loads/stores whose address is directly a scalar (non-frame) alloca:
    these become register-file reads/writes inside the TXU, not data-box
    traffic."""
    if isinstance(inst, Load):
        ptr = inst.pointer
    elif isinstance(inst, Store):
        ptr = inst.pointer
    else:
        return False
    return isinstance(ptr, Alloca) and not ptr.in_frame


def classify(inst: Instruction) -> str:
    """Functional-unit class of an instruction — drives latency and the
    per-operation resource costs of the area model."""
    if isinstance(inst, BinaryOp):
        if inst.op in ("mul",):
            return "mul"
        if inst.op in ("sdiv", "srem"):
            return "div"
        if inst.op in ("fadd", "fsub", "fmin", "fmax"):
            return "falu"
        if inst.op == "fmul":
            return "fmul"
        if inst.op == "fdiv":
            return "fdiv"
        return "alu"
    if isinstance(inst, (ICmp, FCmp, Select, Cast)):
        return "alu"
    if isinstance(inst, GEP):
        return "gep"
    if isinstance(inst, Alloca):
        return "nop"
    if isinstance(inst, Load):
        return "regread" if is_register_access(inst) else "load"
    if isinstance(inst, Store):
        return "regwrite" if is_register_access(inst) else "store"
    if isinstance(inst, Call):
        return "call"
    if isinstance(inst, Detach):
        return "spawn"
    if isinstance(inst, Sync):
        return "sync"
    if inst.is_terminator():
        return "control"
    return "alu"


@dataclass
class DFGNode:
    """One operation in the TXU dataflow; ``deps`` are node indices that
    must have fired (value produced / ordering satisfied) first."""

    index: int
    inst: Instruction
    kind: str
    deps: List[int] = field(default_factory=list)


class BlockDFG:
    """Dataflow graph of one basic block of one task."""

    def __init__(self, block: BasicBlock, nodes: List[DFGNode]):
        self.block = block
        self.nodes = nodes
        self.node_for_inst: Dict[Instruction, DFGNode] = {
            n.inst: n for n in nodes
        }

    def critical_path(self, latency_of) -> int:
        """Longest path through the block given ``latency_of(node) -> int``;
        the pipeline-depth proxy used by the frequency/area models."""
        finish = [0] * len(self.nodes)
        for node in self.nodes:  # nodes are in topological (program) order
            start = max((finish[d] for d in node.deps), default=0)
            finish[node.index] = start + max(1, latency_of(node))
        return max(finish, default=0)


def build_block_dfg(block: BasicBlock,
                    extra_terminator_deps: Sequence[Value] = ()) -> BlockDFG:
    """Build the dataflow graph for ``block``.

    Edges:
      * def -> use for values produced inside the block;
      * register-slot ordering (RAW/WAR/WAW) on scalar allocas;
      * conservative memory ordering: loads after the last store/call,
        stores/calls after every earlier memory op (no alias analysis —
        same position the paper takes for its dataflow pipelines);
      * the terminator additionally waits for ``extra_terminator_deps``
        (spawn-argument values marshalled at a detach).
    """
    nodes: List[DFGNode] = []
    index_of: Dict[Instruction, int] = {}

    last_store: Optional[int] = None          # last store/call node index
    loads_since_store: List[int] = []
    slot_accesses: Dict[Alloca, List[int]] = {}

    for inst in block.instructions:
        node = DFGNode(len(nodes), inst, classify(inst))
        deps = set()

        # def->use
        for op in inst.operands:
            if isinstance(op, Instruction) and op in index_of:
                deps.add(index_of[op])

        # register slot ordering
        if node.kind in ("regread", "regwrite"):
            slot = inst.pointer
            previous = slot_accesses.setdefault(slot, [])
            if node.kind == "regread":
                # RAW: after the most recent write
                for p in reversed(previous):
                    if nodes[p].kind == "regwrite":
                        deps.add(p)
                        break
            else:
                # WAR + WAW: after every earlier access
                deps.update(previous)
            previous.append(node.index)

        # memory ordering (real memory + calls)
        if node.kind == "load":
            if last_store is not None:
                deps.add(last_store)
            loads_since_store.append(node.index)
        elif node.kind in ("store", "call"):
            if last_store is not None:
                deps.add(last_store)
            deps.update(loads_since_store)
            last_store = node.index
            loads_since_store = []

        # terminator extras: marshal values for spawns, and order the
        # block exit after every outstanding memory side effect so a
        # spawned child observes the parent's stores.
        if inst.is_terminator():
            for value in extra_terminator_deps:
                if isinstance(value, Instruction) and value in index_of:
                    deps.add(index_of[value])
            if isinstance(inst, (Detach, Sync)):
                if last_store is not None:
                    deps.add(last_store)

        node.deps = sorted(deps)
        index_of[inst] = node.index
        nodes.append(node)

    return BlockDFG(block, nodes)
