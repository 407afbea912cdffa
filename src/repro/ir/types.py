"""Type system for the Tapir-style parallel IR.

The IR is deliberately small: fixed-width integers, a 32-bit float, typed
pointers and ``void``. This mirrors the subset of LLVM types that the TAPAS
paper's benchmarks exercise (Table II workloads use ``i32``/``f32`` data and
pointer arithmetic via GEP).
"""

from __future__ import annotations


class Type:
    """Base class for IR types. Types are interned singletons per shape."""

    def __eq__(self, other):
        return type(self) is type(other) and self._key() == other._key()

    def __hash__(self):
        return hash((type(self).__name__, self._key()))

    def _key(self):
        return ()

    @property
    def size_bytes(self) -> int:
        """Size of a value of this type in the simulated byte-addressed memory."""
        raise NotImplementedError

    def is_float(self) -> bool:
        return isinstance(self, FloatType)

    def is_pointer(self) -> bool:
        return isinstance(self, PointerType)

    def is_void(self) -> bool:
        return isinstance(self, VoidType)


class VoidType(Type):
    """The type of instructions that produce no value."""

    @property
    def size_bytes(self):
        return 0

    def __repr__(self):
        return "void"


class IntType(Type):
    """Fixed-width two's-complement integer (i1, i8, i32, i64)."""

    WIDTHS = (1, 8, 16, 32, 64)

    def __init__(self, bits: int):
        if bits not in self.WIDTHS:
            raise ValueError(f"unsupported integer width: {bits}")
        self.bits = bits
        self.mask = (1 << bits) - 1
        #: weight of the sign bit; 0 for i1, which holds 0 and 1
        self.sign_bit = 1 << (bits - 1) if bits > 1 else 0

    def _key(self):
        return (self.bits,)

    @property
    def size_bytes(self):
        return max(1, self.bits // 8)

    @property
    def min_value(self) -> int:
        return -self.sign_bit

    @property
    def max_value(self) -> int:
        return self.mask - self.sign_bit

    def wrap(self, value: int) -> int:
        """Wrap a Python int into this type's two's-complement range (the
        one wrap: the compiled engine's steppers specialise this line)."""
        return (value + self.sign_bit & self.mask) - self.sign_bit

    def __repr__(self):
        return f"i{self.bits}"


class FloatType(Type):
    """IEEE-754 single-precision float (the paper's FP workloads use f32)."""

    @property
    def size_bytes(self):
        return 4

    def __repr__(self):
        return "f32"


class PointerType(Type):
    """Typed pointer into the shared byte-addressed memory."""

    def __init__(self, pointee: Type):
        if pointee.is_void():
            raise ValueError("pointer to void is not supported; use i8*")
        self.pointee = pointee

    def _key(self):
        return (self.pointee,)

    @property
    def size_bytes(self):
        return 8

    def __repr__(self):
        return f"{self.pointee!r}*"


# Interned singletons for the common types.
VOID = VoidType()
I1 = IntType(1)
I8 = IntType(8)
I16 = IntType(16)
I32 = IntType(32)
I64 = IntType(64)
F32 = FloatType()


def ptr(pointee: Type) -> PointerType:
    """Shorthand constructor for a pointer type."""
    return PointerType(pointee)
