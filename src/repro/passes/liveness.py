"""Region live-ins over IR values.

TAPAS derives the argument list of each extracted task from the live-ins
of its detached region (paper §III-F). ``use`` here means appearing as an
operand; ``def`` means being the producing instruction.
"""

from __future__ import annotations

from typing import Iterable, Set

from repro.ir.basicblock import BasicBlock
from repro.ir.instructions import Instruction
from repro.ir.values import Argument, Value


def _trackable(value: Value) -> bool:
    """Constants and globals are materialised in place, not live values."""
    return isinstance(value, (Instruction, Argument)) and value is not None


def region_live_ins(blocks: Iterable[BasicBlock]) -> Set[Value]:
    """Values used inside ``blocks`` but defined outside them.

    This is the task-argument computation of paper §III-F: the live-ins of
    a detached region become the spawn arguments / Args-RAM layout of the
    generated task unit.
    """
    block_set = set(blocks)
    defined: Set[Value] = set()
    for block in block_set:
        for inst in block.instructions:
            defined.add(inst)
    live: Set[Value] = set()
    for block in block_set:
        for inst in block.instructions:
            for op in inst.operands:
                if op is None or not _trackable(op):
                    continue
                if op not in defined:
                    live.add(op)
    return live
