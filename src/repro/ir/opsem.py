"""Functional semantics of IR operations: the one place they are spelled.

Each binop, compare predicate and cast kind is one function in the tables
below whose body is a single ``return <expression>`` over Python numbers,
with the operand width passed in as ``bits``; ``IntType.wrap`` is the one
wrap and :func:`to_f32` the one rounding. Readers: the TXU interpreter
(the dense oracle), the CPU baseline, constant folding and the static
predictor call :func:`eval_pure`; the compiled engine's steppers
specialise each table entry, wrap and rounding from its source text
(``sim/compile.py``). The paper runs the *same Cilk sources* on FPGA and
i7 (§V); we run the same IR, with this one meaning, through every model.
"""

from __future__ import annotations

import struct

from repro.errors import SimulationError
from repro.ir.instructions import GEP, BinaryOp, Cast, FCmp, ICmp, Select
from repro.ir.types import FloatType, IntType, PointerType, Type

#: instruction classes that are pure (no side effects, no memory)
PURE = (BinaryOp, ICmp, FCmp, Select, Cast, GEP)

_INF, _NAN = float("inf"), float("nan")


class RegSlot:
    """Marker value an Alloca produces: a register-file slot handle."""

    __slots__ = ("alloca",)

    def __init__(self, alloca):
        self.alloca = alloca


# -- binops: f(a, b, bits) on coerced operands, before the wrap / rounding --

def _add(a, b, bits):
    return a + b

def _sub(a, b, bits):
    return a - b

def _mul(a, b, bits):
    return a * b

def _sdiv(a, b, bits):
    return abs(a) // abs(b) * (1 if (a >= 0) == (b >= 0) else -1)

def _srem(a, b, bits):
    return abs(a) % abs(b) * (-1 if a < 0 else 1)

def _and(a, b, bits):
    return a & b

def _or(a, b, bits):
    return a | b

def _xor(a, b, bits):
    return a ^ b

def _shl(a, b, bits):
    return a << (b & bits - 1)

def _ashr(a, b, bits):
    return a >> (b & bits - 1)

def _lshr(a, b, bits):
    return (a & (1 << bits) - 1) >> (b & bits - 1)

def _min(a, b, bits):
    return min(a, b)

def _max(a, b, bits):
    return max(a, b)

def _fdiv(a, b, bits):
    return a / b if b else _INF if a > 0 else -_INF if a < 0 else _NAN


INT_OPS = {"add": _add, "sub": _sub, "mul": _mul, "sdiv": _sdiv,
           "srem": _srem, "and": _and, "or": _or, "xor": _xor, "shl": _shl,
           "ashr": _ashr, "lshr": _lshr, "smin": _min, "smax": _max}
FLOAT_OPS = {"fadd": _add, "fsub": _sub, "fmul": _mul, "fdiv": _fdiv,
             "fmin": _min, "fmax": _max}
#: the integer binops that trap on a zero divisor, with their message
DIVISIONS = {"sdiv": "integer division by zero",
             "srem": "integer remainder by zero"}


# -- compare predicates: f(a, b) -> 0 / 1 -----------------------------------

def _eq(a, b):
    return 1 if a == b else 0

def _ne(a, b):
    return 1 if a != b else 0

def _lt(a, b):
    return 1 if a < b else 0

def _le(a, b):
    return 1 if a <= b else 0

def _gt(a, b):
    return 1 if a > b else 0

def _ge(a, b):
    return 1 if a >= b else 0


ICMP = {"eq": _eq, "ne": _ne, "slt": _lt, "sle": _le, "sgt": _gt,
        "sge": _ge}
FCMP = {"oeq": _eq, "one": _ne, "olt": _lt, "ole": _le, "ogt": _gt,
        "oge": _ge}


# -- casts: f(v, bits) on the coerced source value, before the wrap ---------

def _keep(v, bits):
    return v

def _zext(v, bits):
    return v & (1 << bits) - 1  # the source bits, read unsigned

def _sitofp(v, bits):
    return float(v)

def _fptosi(v, bits):
    return int(v)


CASTS = {"trunc": _keep, "sext": _keep, "zext": _zext, "sitofp": _sitofp,
         "fptosi": _fptosi, "bitcast": _keep}


def _entry(table: dict, key: str):
    """``table[key]``, or the :class:`SimulationError` of an unknown op."""
    function = table.get(key)
    if function is None:
        raise SimulationError(f"unknown operation {key}")
    return function


def eval_binop(op: str, type_: Type, a, b):
    """Evaluate a binary op with two's-complement / IEEE semantics."""
    if not isinstance(type_, IntType):
        return to_f32(_entry(FLOAT_OPS, op)(float(a), float(b), 32))
    function, a, b = _entry(INT_OPS, op), int(a), int(b)
    if op in DIVISIONS and b == 0:
        raise SimulationError(DIVISIONS[op])
    return type_.wrap(function(a, b, type_.bits))


def eval_icmp(predicate: str, a, b) -> int:
    return _entry(ICMP, predicate)(int(a), int(b))


def eval_fcmp(predicate: str, a, b) -> int:
    return _entry(FCMP, predicate)(float(a), float(b))


def eval_cast(kind: str, value, from_type: Type, to_type: Type):
    """A cast reads its source in the source's domain (a pointer as it
    is); an integer result is wrapped into ``to_type``."""
    if isinstance(from_type, (IntType, FloatType)):
        value = int(value) if isinstance(from_type, IntType) else float(value)
    result = _entry(CASTS, kind)(value, getattr(from_type, "bits", 32))
    return to_type.wrap(result) if isinstance(to_type, IntType) else result


def eval_gep(base: int, indices, strides) -> int:
    addr = int(base)
    for index, stride in zip(indices, strides):
        addr += int(index) * stride
    return addr


def eval_pure(inst, resolve):
    """Evaluate one :data:`PURE` instruction (anything else raises);
    ``resolve(operand)`` yields an operand's value. The one dispatch the
    TXU, the CPU baseline, constant folding and the predictor share."""
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
    """Quantise a Python number to single precision (the one rounding: f32
    results and what memory stores)."""
    return struct.unpack("<f", struct.pack("<f", value))[0]


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
