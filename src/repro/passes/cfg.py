"""Control-flow-graph utilities shared by every analysis pass."""

from __future__ import annotations

from typing import Dict, List, Set

from repro.ir.basicblock import BasicBlock
from repro.ir.function import Function


def predecessor_map(function: Function) -> Dict[BasicBlock, List[BasicBlock]]:
    """Map each block to the blocks that branch to it (in block order)."""
    preds: Dict[BasicBlock, List[BasicBlock]] = {b: [] for b in function.blocks}
    for block in function.blocks:
        for succ in block.successors():
            preds[succ].append(block)
    return preds


def reverse_post_order(function: Function) -> List[BasicBlock]:
    """RPO over reachable blocks — the canonical forward-analysis order."""
    order: List[BasicBlock] = []
    seen: Set[BasicBlock] = set()

    def visit(block: BasicBlock):
        if block in seen:
            return
        seen.add(block)
        for succ in block.successors():
            visit(succ)
        order.append(block)

    visit(function.entry)
    order.reverse()
    return order
