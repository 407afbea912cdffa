"""Textual IR printer, LLVM-flavoured, used for debugging and golden tests."""

from __future__ import annotations

from typing import Dict

from repro.ir.basicblock import BasicBlock
from repro.ir.function import Function
from repro.ir.instructions import (
    GEP,
    Alloca,
    BinaryOp,
    Br,
    Call,
    Cast,
    CondBr,
    Detach,
    FCmp,
    ICmp,
    Instruction,
    Load,
    Reattach,
    Ret,
    Select,
    Store,
    Sync,
)
from repro.ir.module import Module
from repro.ir.values import Value


class Printer:
    """Prints modules/functions with stable, sequential value numbering.

    Names are uniquified: two distinct values never print the same.
    """

    def __init__(self):
        self._names: Dict[Value, str] = {}
        self._used: set = set()

    def _ref(self, value) -> str:
        if value is None:
            return "<none>"
        if isinstance(value, Instruction):
            if value not in self._names:
                base = value.name or "v"
                candidate = base
                counter = 1
                while candidate in self._used:
                    candidate = f"{base}.{counter}"
                    counter += 1
                self._used.add(candidate)
                self._names[value] = f"%{candidate}"
            return self._names[value]
        return value.short()

    def instruction(self, inst: Instruction) -> str:
        r = self._ref
        if isinstance(inst, BinaryOp):
            return f"{r(inst)} = {inst.op} {inst.type!r} {r(inst.lhs)}, {r(inst.rhs)}"
        if isinstance(inst, ICmp):
            return f"{r(inst)} = icmp {inst.predicate} {r(inst.lhs)}, {r(inst.rhs)}"
        if isinstance(inst, FCmp):
            return (f"{r(inst)} = fcmp {inst.predicate} "
                    f"{r(inst.operands[0])}, {r(inst.operands[1])}")
        if isinstance(inst, Select):
            c, t, f = inst.operands
            return f"{r(inst)} = select {r(c)}, {r(t)}, {r(f)}"
        if isinstance(inst, Cast):
            return f"{r(inst)} = {inst.kind} {r(inst.operands[0])} to {inst.type!r}"
        if isinstance(inst, Alloca):
            marker = "alloca.frame" if inst.in_frame else "alloca"
            return f"{r(inst)} = {marker} {inst.allocated_type!r}"
        if isinstance(inst, GEP):
            pairs = ", ".join(
                f"{r(i)}*{s}" for i, s in zip(inst.indices, inst.strides))
            return f"{r(inst)} = gep {r(inst.base)} [{pairs}]"
        if isinstance(inst, Load):
            return f"{r(inst)} = load {inst.type!r} {r(inst.pointer)}"
        if isinstance(inst, Store):
            return f"store {r(inst.value)}, {r(inst.pointer)}"
        if isinstance(inst, Call):
            args = ", ".join(r(a) for a in inst.args)
            if inst.type.is_void():
                return f"call @{inst.callee.name}({args})"
            return f"{r(inst)} = call @{inst.callee.name}({args})"
        if isinstance(inst, Br):
            return f"br {inst.dest.name}"
        if isinstance(inst, CondBr):
            return f"condbr {r(inst.cond)}, {inst.if_true.name}, {inst.if_false.name}"
        if isinstance(inst, Ret):
            return f"ret {r(inst.value)}" if inst.value is not None else "ret"
        if isinstance(inst, Detach):
            return f"detach {inst.detached.name}, continue {inst.continuation.name}"
        if isinstance(inst, Reattach):
            return f"reattach {inst.continuation.name}"
        if isinstance(inst, Sync):
            return f"sync {inst.continuation.name}"
        return f"<{inst.opcode}>"

    def block(self, block: BasicBlock) -> str:
        lines = [f"{block.name}:"]
        lines.extend(f"  {self.instruction(i)}" for i in block.instructions)
        return "\n".join(lines)

    def function(self, function: Function) -> str:
        args = ", ".join(f"{a.name}: {a.type!r}" for a in function.arguments)
        lines = [f"func @{function.name}({args}) -> {function.return_type!r} {{"]
        lines.extend(self.block(b) for b in function.blocks)
        lines.append("}")
        return "\n".join(lines)

    def module(self, module: Module) -> str:
        parts = [f"; module {module.name}"]
        parts.extend(
            f"@{g.name}: {g.type!r} [{g.size_bytes} bytes]" for g in module.globals)
        parts.extend(self.function(f) for f in module.functions)
        return "\n\n".join(parts)


def print_module(module: Module) -> str:
    return Printer().module(module)
