"""Dominator analysis: dominator sets, immediate dominators, dominator tree.

Implemented as the classic iterative dataflow fixpoint — the CFGs this
toolchain sees are small (Table II: tens of instructions per task), so
clarity wins over the Lengauer-Tarjan asymptotics.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.ir.basicblock import BasicBlock
from repro.ir.function import Function
from repro.passes.cfg import predecessor_map, reverse_post_order


class DominatorInfo:
    """Dominator sets plus the derived immediate-dominator tree."""

    def __init__(self, function: Function):
        self.function = function
        self.dominators: Dict[BasicBlock, Set[BasicBlock]] = {}
        self.idom: Dict[BasicBlock, Optional[BasicBlock]] = {}
        self._compute()

    def _compute(self):
        function = self.function
        rpo = reverse_post_order(function)
        reachable = set(rpo)
        preds = predecessor_map(function)
        entry = function.entry

        dom: Dict[BasicBlock, Set[BasicBlock]] = {
            b: ({entry} if b is entry else set(reachable)) for b in rpo
        }
        changed = True
        while changed:
            changed = False
            for block in rpo:
                if block is entry:
                    continue
                reachable_preds = [p for p in preds[block] if p in reachable]
                if reachable_preds:
                    new = set.intersection(*(dom[p] for p in reachable_preds))
                else:
                    new = set()
                new = new | {block}
                if new != dom[block]:
                    dom[block] = new
                    changed = True
        self.dominators = dom

        # Immediate dominator: the strict dominator that every other
        # strict dominator dominates (i.e. the closest one).
        for block in rpo:
            if block is entry:
                self.idom[block] = None
                continue
            strict = dom[block] - {block}
            idom = None
            for candidate in strict:
                if all(other in dom[candidate] for other in strict):
                    idom = candidate
                    break
            self.idom[block] = idom

    def dominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        """True if ``a`` dominates ``b`` (reflexive)."""
        return a in self.dominators.get(b, set())


def compute_dominators(function: Function) -> DominatorInfo:
    return DominatorInfo(function)
