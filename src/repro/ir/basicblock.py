"""Basic blocks: straight-line instruction sequences ending in a terminator."""

from __future__ import annotations

from typing import List, Optional

from repro.errors import IRError
from repro.ir.instructions import Instruction, Terminator


class BasicBlock:
    """A named, single-entry straight-line region of a function."""

    def __init__(self, name: str):
        self.name = name
        self.instructions: List[Instruction] = []
        self.parent = None  # owning Function, set on insertion

    # -- construction -------------------------------------------------------

    def append(self, inst: Instruction) -> Instruction:
        if self.is_terminated():
            raise IRError(
                f"cannot append to terminated block '{self.name}'")
        inst.parent = self
        self.instructions.append(inst)
        return inst

    # -- queries -------------------------------------------------------------

    @property
    def terminator(self) -> Optional[Terminator]:
        if self.instructions and self.instructions[-1].is_terminator():
            return self.instructions[-1]
        return None

    def is_terminated(self) -> bool:
        return self.terminator is not None

    def successors(self) -> List["BasicBlock"]:
        term = self.terminator
        return list(term.successors()) if term else []

    def body(self) -> List[Instruction]:
        """Instructions excluding the terminator."""
        if self.is_terminated():
            return self.instructions[:-1]
        return list(self.instructions)

    def __repr__(self):
        return f"<BasicBlock {self.name} ({len(self.instructions)} insts)>"
