"""Functional semantics of IR operations.

Shared by the TXU dataflow engine and the multicore CPU baseline so both
execute the identical program semantics — the paper runs the *same Cilk
sources* on FPGA and i7 (§V), and we mirror that by running the same IR
through two timing models.
"""

from __future__ import annotations

import struct

from repro.errors import SimulationError
from repro.ir.instructions import GEP, BinaryOp, Cast, FCmp, ICmp, Select
from repro.ir.types import FloatType, IntType, PointerType, Type

#: instruction classes that are pure (no side effects, no memory)
PURE = (BinaryOp, ICmp, FCmp, Select, Cast, GEP)


class RegSlot:
    """Marker value an Alloca produces: a register-file slot handle."""

    __slots__ = ("alloca",)

    def __init__(self, alloca):
        self.alloca = alloca


def eval_binop(op: str, type_: Type, a, b):
    """Evaluate a binary op with two's-complement / IEEE semantics."""
    if isinstance(type_, IntType):
        ia, ib = int(a), int(b)
        if op == "add":
            r = ia + ib
        elif op == "sub":
            r = ia - ib
        elif op == "mul":
            r = ia * ib
        elif op == "sdiv":
            if ib == 0:
                raise SimulationError("integer division by zero")
            r = abs(ia) // abs(ib) * (1 if (ia >= 0) == (ib >= 0) else -1)
        elif op == "srem":
            if ib == 0:
                raise SimulationError("integer remainder by zero")
            r = ia - (abs(ia) // abs(ib) * (1 if (ia >= 0) == (ib >= 0) else -1)) * ib
        elif op == "and":
            r = ia & ib
        elif op == "or":
            r = ia | ib
        elif op == "xor":
            r = ia ^ ib
        elif op == "shl":
            r = ia << (ib & (type_.bits - 1))
        elif op == "ashr":
            r = ia >> (ib & (type_.bits - 1))
        elif op == "lshr":
            mask = (1 << type_.bits) - 1
            r = (ia & mask) >> (ib & (type_.bits - 1))
        elif op == "smin":
            r = min(ia, ib)
        elif op == "smax":
            r = max(ia, ib)
        else:
            raise SimulationError(f"unknown integer binop {op}")
        return type_.wrap(r)

    fa, fb = float(a), float(b)
    if op == "fadd":
        r = fa + fb
    elif op == "fsub":
        r = fa - fb
    elif op == "fmul":
        r = fa * fb
    elif op == "fdiv":
        if fb == 0.0:
            r = float("inf") if fa > 0 else float("-inf") if fa < 0 else float("nan")
        else:
            r = fa / fb
    elif op == "fmin":
        r = min(fa, fb)
    elif op == "fmax":
        r = max(fa, fb)
    else:
        raise SimulationError(f"unknown float binop {op}")
    # round-trip through f32 so accumulated error matches 32-bit hardware
    return struct.unpack("<f", struct.pack("<f", r))[0]


_ICMP = {
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
    "slt": lambda a, b: a < b,
    "sle": lambda a, b: a <= b,
    "sgt": lambda a, b: a > b,
    "sge": lambda a, b: a >= b,
}

_FCMP = {
    "oeq": lambda a, b: a == b,
    "one": lambda a, b: a != b,
    "olt": lambda a, b: a < b,
    "ole": lambda a, b: a <= b,
    "ogt": lambda a, b: a > b,
    "oge": lambda a, b: a >= b,
}


def eval_icmp(predicate: str, a, b) -> int:
    return 1 if _ICMP[predicate](int(a), int(b)) else 0


def eval_fcmp(predicate: str, a, b) -> int:
    return 1 if _FCMP[predicate](float(a), float(b)) else 0


def eval_cast(kind: str, value, from_type: Type, to_type: Type):
    if kind in ("trunc", "sext", "zext"):
        value = int(value)
        if kind == "zext" and isinstance(from_type, IntType):
            value &= (1 << from_type.bits) - 1  # source bits, read unsigned
        return to_type.wrap(value)
    if kind == "sitofp":
        return float(int(value))
    if kind == "fptosi":
        return to_type.wrap(int(float(value)))
    if kind == "bitcast":
        return value
    raise SimulationError(f"unknown cast kind {kind}")


def eval_gep(base: int, indices, strides) -> int:
    addr = int(base)
    for index, stride in zip(indices, strides):
        addr += int(index) * stride
    return addr


def eval_pure(inst, resolve):
    """Evaluate one :data:`PURE` instruction (anything else raises);
    ``resolve(operand)`` yields an operand's value. The one dispatch the
    TXU, the CPU baseline and constant folding share."""
    if isinstance(inst, BinaryOp):
        return eval_binop(inst.op, inst.type,
                          resolve(inst.lhs), resolve(inst.rhs))
    if isinstance(inst, ICmp):
        return eval_icmp(inst.predicate, resolve(inst.lhs), resolve(inst.rhs))
    if isinstance(inst, FCmp):
        return eval_fcmp(inst.predicate, resolve(inst.operands[0]),
                         resolve(inst.operands[1]))
    if isinstance(inst, Select):
        cond, if_true, if_false = inst.operands
        return resolve(if_true) if resolve(cond) else resolve(if_false)
    if isinstance(inst, Cast):
        return eval_cast(inst.kind, resolve(inst.operands[0]),
                         inst.operands[0].type, inst.type)
    if isinstance(inst, GEP):
        base = resolve(inst.base)
        if isinstance(base, RegSlot):
            raise SimulationError(
                "address arithmetic on a register slot — scalar allocas "
                "may only be loaded/stored directly")
        return eval_gep(base, [resolve(i) for i in inst.indices], inst.strides)
    raise SimulationError(f"cannot execute {inst.opcode}")


def to_f32(value: float) -> float:
    """Quantise a Python float to single precision (what memory stores)."""
    return struct.unpack("<f", struct.pack("<f", float(value)))[0]


def value_to_raw(type_: Type, value) -> int:
    """Encode a typed value as the raw little-endian integer a store sends."""
    if isinstance(type_, FloatType):
        return struct.unpack("<I", struct.pack("<f", float(value)))[0]
    if isinstance(type_, PointerType):
        return int(value) & ((1 << 64) - 1)
    if isinstance(type_, IntType):
        return int(value) & ((1 << type_.bits) - 1)
    raise SimulationError(f"cannot encode value of type {type_!r}")


def raw_to_value(type_: Type, raw: int):
    """Decode a load response payload into a typed value."""
    if isinstance(type_, FloatType):
        return struct.unpack("<f", struct.pack("<I", raw & 0xFFFFFFFF))[0]
    if isinstance(type_, PointerType):
        return int(raw)
    if isinstance(type_, IntType):
        return type_.wrap(int(raw))
    raise SimulationError(f"cannot decode value of type {type_!r}")
