"""Natural-loop detection, used by the concurrency optimiser
(spawner-in-loop -> deeper task queues) and the CPU baseline, plus the
counted-loop shape the range, performance and race analyses each test
against their own admissibility rules."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple

from repro.ir.basicblock import BasicBlock
from repro.ir.function import Function
from repro.ir.instructions import (
    Alloca,
    BinaryOp,
    CondBr,
    ICmp,
    Load,
    Store,
)
from repro.ir.values import Constant
from repro.passes.cfg import predecessor_map
from repro.passes.dominators import compute_dominators


@dataclass
class Loop:
    """A natural loop: ``header`` dominates the ``latch`` back edge."""

    header: BasicBlock
    latch: BasicBlock
    blocks: Set[BasicBlock] = field(default_factory=set)

    def __repr__(self):
        return f"<Loop header={self.header.name} blocks={len(self.blocks)}>"


def find_loops(function: Function) -> List[Loop]:
    """All natural loops in ``function``, outermost first: a loop that
    contains another has more blocks, so it sorts ahead of it."""
    dom = compute_dominators(function)
    preds = predecessor_map(function)
    loops: List[Loop] = []

    for block in function.blocks:
        for succ in block.successors():
            if dom.dominates(succ, block):  # back edge block -> succ
                loop = Loop(header=succ, latch=block)
                loop.blocks = _loop_body(succ, block, preds)
                loops.append(loop)
    loops.sort(key=lambda loop: len(loop.blocks), reverse=True)
    return loops


def _loop_body(header: BasicBlock, latch: BasicBlock, preds) -> Set[BasicBlock]:
    """Blocks of the natural loop: header plus everything that reaches the
    latch without passing the header."""
    body = {header, latch}
    stack = [latch]
    while stack:
        block = stack.pop()
        for pred in preds.get(block, []):
            if pred not in body:
                body.add(pred)
                stack.append(pred)
    return body


def cell_updates(blocks, cell: Alloca) -> List[Tuple[Store, Optional[int]]]:
    """Every store to register cell ``cell`` in ``blocks``, each with its
    signed step ``C`` when it stores ``cell + C``, ``C + cell`` or
    ``cell - C`` (the latter as ``-C``) and None when it stores anything
    else."""
    updates = []
    for block in blocks:
        for inst in block.instructions:
            if isinstance(inst, Store) and inst.pointer is cell:
                updates.append((inst, _signed_step(inst.value, cell)))
    return updates


def _signed_step(value, cell: Alloca) -> Optional[int]:
    if not isinstance(value, BinaryOp) or value.op not in ("add", "sub"):
        return None
    operands = [(value.lhs, value.rhs)]
    if value.op == "add":
        operands.append((value.rhs, value.lhs))
    for slot, const in operands:
        if (isinstance(slot, Load) and slot.pointer is cell
                and isinstance(const, Constant)):
            return int(const.value) if value.op == "add" else -int(const.value)
    return None


@dataclass
class CountedLoop:
    """The raw ``while (load cell <slt|sle> limit) ... cell = cell +/- C``
    shape of a loop. Whether the limit must be constant, the compare sit
    in the header or the steps agree is each analysis's own test."""

    cell: Alloca
    #: ``load cell <slt|sle> limit``; the loop continues on its true edge
    compare: ICmp
    #: :func:`cell_updates` of the loop's blocks
    updates: List[Tuple[Store, Optional[int]]]

    def up_step(self) -> Optional[int]:
        """The one positive ``C`` every in-loop update adds by
        ``cell = cell + C``; None if any update does something else."""
        steps = {step if step and store.value.op == "add" else 0
                 for store, step in self.updates}
        return steps.pop() if len(steps) == 1 and min(steps) > 0 else None


def match_counted_loop(loop: Loop) -> Optional[CountedLoop]:
    """The :class:`CountedLoop` shape of ``loop``, if its header branches
    on a ``load cell <slt|sle> limit`` of a register cell — directly or
    as the first integer-compare conjunct of an ``and``."""
    term = loop.header.terminator
    if not isinstance(term, CondBr) or term.if_true not in loop.blocks:
        return None
    cond = term.cond
    if isinstance(cond, BinaryOp) and cond.op == "and":
        cond = next((part for part in (cond.lhs, cond.rhs)
                     if isinstance(part, ICmp)), None)
    if not isinstance(cond, ICmp) or cond.predicate not in ("slt", "sle"):
        return None
    cell = cond.lhs.pointer if isinstance(cond.lhs, Load) else None
    if not isinstance(cell, Alloca) or cell.in_frame:
        return None
    return CountedLoop(cell, cond, cell_updates(loop.blocks, cell))
