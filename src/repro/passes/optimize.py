"""IR optimisations: the "Concurrency Opt" / "Task Opt" boxes of Fig 3.

Two conservative, hardware-motivated transforms:

* **value numbering** — one preorder walk of the dominator tree folds
  every all-constant pure operation (a folded operation is a wire, not
  a functional unit: zero ALMs, zero latency in the TXU) and replaces a
  pure operation by an identical one that dominates it (one functional
  unit with fan-out, exactly what a Chisel elaborator would share; no
  code motion).  Detached regions are a sharing barrier: a value
  computed outside a region is never forwarded into it, so task live-in
  sets (and the marshalled spawn arguments) are unchanged;
* **dead-code elimination** — unused pure operations would synthesise
  real hardware (the elaborator instantiates every DFG node).

Both preserve the parallel markers untouched and never touch memory
operations, calls, or anything with side effects.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.ir.basicblock import BasicBlock
from repro.ir.function import Function
from repro.ir.instructions import (
    GEP,
    BinaryOp,
    Cast,
    Detach,
    FCmp,
    ICmp,
    Instruction,
    Select,
)
from repro.ir.module import Module
from repro.ir.opsem import PURE, eval_pure
from repro.ir.values import Constant, Value
from repro.passes.dominators import compute_dominators


def _fold(inst: Instruction):
    """Return a Constant replacing ``inst`` if all operands are constants."""
    if isinstance(inst, GEP) or not all(
            isinstance(op, Constant) for op in inst.operands):
        return None  # a GEP stays an address generator
    try:
        return Constant(inst.type, eval_pure(inst, lambda op: op.value))
    except Exception:
        return None  # e.g. constant division by zero: leave it to run time


def eliminate_dead_code(function: Function) -> int:
    """Remove pure instructions whose results are never used."""
    removed = 0
    while True:
        used = {op for inst in function.instructions() for op in inst.operands}
        dead = 0
        for block in function.blocks:
            kept = [inst for inst in block.instructions
                    if inst in used or not isinstance(inst, PURE)]
            dead += len(block.instructions) - len(kept)
            block.instructions[:] = kept
        if not dead:
            return removed
        removed += dead


def _value_index(function: Function) -> Dict[Value, int]:
    """Stable per-function ordinal for every value an operand can name:
    arguments by position, then instructions in program order.  Commutative
    operands sort on it, so keys never depend on ``id()``."""
    index: Dict[Value, int] = {}
    for arg in function.arguments:
        index[arg] = len(index)
    for block in function.blocks:
        for inst in block.instructions:
            index[inst] = len(index)
    return index


def _operand_key(op: Value, index: Dict[Value, int]):
    """A hashable, totally ordered, run-stable key for one operand."""
    if isinstance(op, Constant):
        return ("c", str(op.type), repr(op.value))
    pos = index.get(op)
    if pos is not None:
        return ("v", pos)
    # globals and other module-level values: key by name
    return ("g", getattr(op, "name", "") or repr(op))


def _cse_key(inst: Instruction, index: Dict[Value, int]):
    """A structural hash for pure operations."""
    ids = tuple(_operand_key(op, index) for op in inst.operands)
    if isinstance(inst, BinaryOp):
        ops = ids
        if inst.op in ("add", "mul", "and", "or", "xor",
                       "fadd", "fmul", "smin", "smax"):
            ops = tuple(sorted(ids))  # commutative
        return ("bin", inst.op, ops)
    if isinstance(inst, ICmp):
        return ("icmp", inst.predicate, ids)
    if isinstance(inst, FCmp):
        return ("fcmp", inst.predicate, ids)
    if isinstance(inst, Select):
        return ("select", ids)
    if isinstance(inst, Cast):
        return ("cast", inst.kind, str(inst.type), ids)
    if isinstance(inst, GEP):
        return ("gep", tuple(inst.strides), ids)
    raise TypeError(f"no value-numbering key for {inst.opcode}")


def value_number(function: Function) -> Tuple[int, int]:
    """Fold and share pure operations in one dominator-order walk;
    returns ``(folded, shared)``.

    Blocks are visited in preorder of the dominator tree, children in
    function order, so every operand's definition is visited before its
    uses.  Each instruction first has its operands rewritten through the
    ``replaced`` map; an all-constant pure op then becomes its folded
    Constant, and a pure op whose key is in the scoped table becomes the
    dominating op recorded there.  The table starts empty at the entry
    of every detached region.  Blocks no edge reaches get the same step
    afterwards, in function order, each with an empty table; a use that
    precedes its definition in that order is rewritten at the end.
    """
    if not function.blocks:
        return 0, 0
    idom = compute_dominators(function).idom
    children: Dict[BasicBlock, List[BasicBlock]] = {b: [] for b in function.blocks}
    detach_entries: Set[BasicBlock] = set()
    for block in function.blocks:
        if idom.get(block) is not None:
            children[idom[block]].append(block)
        if isinstance(block.terminator, Detach):
            detach_entries.add(block.terminator.detached)

    index = _value_index(function)
    replaced: Dict[Value, Value] = {}

    def rewrite(inst: Instruction):
        ops = inst.operands
        for i, op in enumerate(ops):
            if op in replaced:
                ops[i] = replaced[op]

    def visit(block: BasicBlock, table: Dict[tuple, Instruction]):
        kept = []
        for inst in block.instructions:
            rewrite(inst)
            new = _fold(inst) if isinstance(inst, PURE) else inst
            if new is None:
                new = table.setdefault(_cse_key(inst, index), inst)
            if new is inst:
                kept.append(inst)
            else:
                replaced[inst] = new
        block.instructions[:] = kept

    stack = [(function.entry, {})]
    while stack:
        block, inherited = stack.pop()
        table = {} if block in detach_entries else dict(inherited)
        visit(block, table)
        stack.extend((child, table) for child in reversed(children[block]))
    unreached = [b for b in function.blocks if b not in idom]
    for block in unreached:
        visit(block, {})
    for block in unreached:
        for inst in block.instructions:
            rewrite(inst)
    folded = sum(isinstance(new, Constant) for new in replaced.values())
    return folded, len(replaced) - folded


def optimize_function(function: Function) -> Dict[str, int]:
    """Value-number, then drop dead code; returns per-step counts."""
    folded, shared = value_number(function)
    return {"folded": folded, "shared": shared,
            "dce": eliminate_dead_code(function)}


def optimize_module(module: Module) -> Dict[str, int]:
    """Optimise every function; returns summed per-step counts."""
    totals = {"folded": 0, "shared": 0, "dce": 0}
    for function in module.functions:
        for key, count in optimize_function(function).items():
            totals[key] += count
    return totals
