"""Compiled task: the Stage-2 artifact a TXU executes.

The HLS generator lowers each static task into this form: per-block
dataflow graphs, spawn specifications for every detach site, frame layout
for in-frame allocas, and the argument binding order (the Args-RAM
layout).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.ir.basicblock import BasicBlock
from repro.ir.instructions import Alloca, Call, Detach
from repro.ir.values import Value
from repro.passes.dataflow_graph import BlockDFG
from repro.passes.taskgraph import Task


@dataclass
class SpawnSpec:
    """Everything a detach site needs to marshal a spawn at run time."""

    dest_sid: int
    arg_values: List[Value]
    ret_ptr_value: Optional[Value] = None


@dataclass
class CallSpec:
    """A serial (blocking) call site: spawn + wait for the return value."""

    dest_sid: int
    arg_values: List[Value]


@dataclass
class CompiledTask:
    """One task unit's program: what Stage 2 of the toolchain emits."""

    sid: int
    name: str
    task: Task
    entry_block: BasicBlock
    blocks: List[BasicBlock]
    dfgs: Dict[BasicBlock, BlockDFG]
    #: values bound positionally to a spawn's args tuple
    arg_values: List[Value]
    spawn_specs: Dict[Detach, SpawnSpec] = field(default_factory=dict)
    call_specs: Dict[Call, CallSpec] = field(default_factory=dict)
    #: per-instance frame bytes (0 if the task never uses frame slots)
    frame_size: int = 0
    frame_offsets: Dict[Alloca, int] = field(default_factory=dict)

    def dfg(self, block: BasicBlock) -> BlockDFG:
        return self.dfgs[block]

    def owns_block(self, block: BasicBlock) -> bool:
        return block in self.dfgs

    def __repr__(self):
        return (f"<CompiledTask sid={self.sid} {self.name} "
                f"blocks={len(self.blocks)} frame={self.frame_size}B>")
