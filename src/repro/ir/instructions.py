"""Instruction set of the Tapir-style parallel IR.

The instruction set is a small LLVM subset plus the three parallel
instructions Tapir adds — ``detach``, ``reattach`` and ``sync`` — which is
exactly what the TAPAS toolchain consumes (paper §III-F). An instruction is
itself a :class:`~repro.ir.values.Value` (its result), LLVM-style.

Terminators: ``br``, ``condbr``, ``ret``, ``detach``, ``reattach``, ``sync``.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import IRError
from repro.ir.types import I1, VOID, PointerType, Type
from repro.ir.values import Value

# Integer binary opcodes, with division latency/area modelled separately.
INT_BINOPS = {
    "add", "sub", "mul", "sdiv", "srem",
    "and", "or", "xor", "shl", "ashr", "lshr",
    "smin", "smax",
}
FLOAT_BINOPS = {"fadd", "fsub", "fmul", "fdiv", "fmin", "fmax"}
ICMP_PREDICATES = {"eq", "ne", "slt", "sle", "sgt", "sge"}
FCMP_PREDICATES = {"oeq", "one", "olt", "ole", "ogt", "oge"}
CAST_KINDS = {"trunc", "sext", "zext", "sitofp", "fptosi", "bitcast"}


class Instruction(Value):
    """Base class; ``operands`` is the ordered list of input values."""

    #: class-level opcode string, overridden by subclasses
    opcode = "<abstract>"

    def __init__(self, type_: Type, operands: List[Value], name: str = ""):
        super().__init__(type_, name)
        self.operands = list(operands)
        self.parent = None  # set when appended to a BasicBlock
        self.loc = None  # source line threaded from the frontend (or None)

    def is_terminator(self) -> bool:
        return False

    def successors(self):
        """Successor basic blocks (terminators only)."""
        return []

    def replace_operand(self, old: Value, new: Value) -> int:
        """Replace every occurrence of ``old`` in operands; returns count."""
        count = 0
        for i, op in enumerate(self.operands):
            if op is old:
                self.operands[i] = new
                count += 1
        return count

    def __repr__(self):
        return f"<{type(self).__name__} {self.short()}>"


class BinaryOp(Instruction):
    """Integer or floating-point arithmetic/logic with two operands."""

    def __init__(self, op: str, lhs: Value, rhs: Value, name: str = ""):
        if op not in INT_BINOPS and op not in FLOAT_BINOPS:
            raise IRError(f"unknown binary opcode: {op}")
        if lhs.type != rhs.type:
            raise IRError(f"binary operand type mismatch: {lhs.type!r} vs {rhs.type!r}")
        super().__init__(lhs.type, [lhs, rhs], name)
        self.op = op

    @property
    def opcode(self):
        return self.op

    @property
    def lhs(self):
        return self.operands[0]

    @property
    def rhs(self):
        return self.operands[1]


class ICmp(Instruction):
    """Signed integer (or pointer) comparison producing i1."""

    opcode = "icmp"

    def __init__(self, predicate: str, lhs: Value, rhs: Value, name: str = ""):
        if predicate not in ICMP_PREDICATES:
            raise IRError(f"unknown icmp predicate: {predicate}")
        if lhs.type != rhs.type:
            raise IRError(f"icmp operand type mismatch: {lhs.type!r} vs {rhs.type!r}")
        super().__init__(I1, [lhs, rhs], name)
        self.predicate = predicate

    @property
    def lhs(self):
        return self.operands[0]

    @property
    def rhs(self):
        return self.operands[1]


class FCmp(Instruction):
    """Ordered floating-point comparison producing i1."""

    opcode = "fcmp"

    def __init__(self, predicate: str, lhs: Value, rhs: Value, name: str = ""):
        if predicate not in FCMP_PREDICATES:
            raise IRError(f"unknown fcmp predicate: {predicate}")
        if lhs.type != rhs.type:
            raise IRError("fcmp operand type mismatch")
        super().__init__(I1, [lhs, rhs], name)
        self.predicate = predicate


class Select(Instruction):
    """``select cond, a, b`` — multiplexer."""

    opcode = "select"

    def __init__(self, cond: Value, if_true: Value, if_false: Value, name: str = ""):
        if cond.type != I1:
            raise IRError("select condition must be i1")
        if if_true.type != if_false.type:
            raise IRError("select arm type mismatch")
        super().__init__(if_true.type, [cond, if_true, if_false], name)


class Cast(Instruction):
    """Width/representation conversion (trunc/sext/zext/sitofp/fptosi/bitcast)."""

    def __init__(self, kind: str, value: Value, to_type: Type, name: str = ""):
        if kind not in CAST_KINDS:
            raise IRError(f"unknown cast kind: {kind}")
        super().__init__(to_type, [value], name)
        self.kind = kind

    @property
    def opcode(self):
        return self.kind


class Alloca(Instruction):
    """Declare a task-local slot.

    Scalar allocas become registers in the generated TXU ("Stack RAM" /
    register file in Fig 4); the frontend lowers every mutable local
    variable to an alloca plus loads/stores.

    Frame allocas (``in_frame=True``) instead live in the task instance's
    frame in shared memory — this is how spawn return values travel from a
    child back to its parent ("return values are passed through the shared
    cache", paper §IV-C): the parent passes ``&frame_slot`` to the child,
    the child stores through it, the parent loads after ``sync``.
    """

    opcode = "alloca"

    def __init__(self, allocated_type: Type, name: str = "", in_frame: bool = False):
        super().__init__(PointerType(allocated_type), [], name)
        self.allocated_type = allocated_type
        self.in_frame = in_frame


class GEP(Instruction):
    """Address arithmetic: ``base + sum(index_i * stride_i bytes)``.

    A flattened form of LLVM's getelementptr sufficient for the paper's
    workloads (1-D and 2-D array indexing). Strides are byte counts fixed at
    construction; indices are runtime values.
    """

    opcode = "gep"

    def __init__(self, base: Value, indices: List[Value], strides: List[int], name: str = ""):
        if not base.type.is_pointer():
            raise IRError("gep base must be a pointer")
        if len(indices) != len(strides):
            raise IRError("gep needs one stride per index")
        if not indices:
            raise IRError("gep needs at least one index")
        for stride in strides:
            if int(stride) <= 0:
                raise IRError("gep strides must be positive byte counts")
        super().__init__(base.type, [base] + list(indices), name)
        self.strides = [int(s) for s in strides]

    @property
    def base(self):
        return self.operands[0]

    @property
    def indices(self):
        return self.operands[1:]


class Load(Instruction):
    """Load through a pointer. Non-alloca addresses go through the data box."""

    opcode = "load"

    def __init__(self, pointer: Value, name: str = ""):
        if not pointer.type.is_pointer():
            raise IRError("load operand must be a pointer")
        super().__init__(pointer.type.pointee, [pointer], name)

    @property
    def pointer(self):
        return self.operands[0]


class Store(Instruction):
    """Store through a pointer; produces no value."""

    opcode = "store"

    def __init__(self, value: Value, pointer: Value):
        if not pointer.type.is_pointer():
            raise IRError("store target must be a pointer")
        if pointer.type.pointee != value.type:
            raise IRError(
                f"store type mismatch: {value.type!r} into {pointer.type!r}")
        super().__init__(VOID, [value, pointer])

    @property
    def value(self):
        return self.operands[0]

    @property
    def pointer(self):
        return self.operands[1]


class Call(Instruction):
    """Direct call to another function in the module.

    Inside a detached region a call is how recursive parallelism appears
    (mergesort/fib spawn themselves, paper §IV-C).
    """

    opcode = "call"

    def __init__(self, callee, args: List[Value], name: str = ""):
        from repro.ir.function import Function  # cycle guard

        if not isinstance(callee, Function):
            raise IRError("call target must be a Function")
        expected = [a.type for a in callee.arguments]
        got = [a.type for a in args]
        if expected != got:
            raise IRError(
                f"call to {callee.name}: argument types {got} != parameters {expected}")
        super().__init__(callee.return_type, list(args), name)
        self.callee = callee

    @property
    def args(self):
        return self.operands


# ---------------------------------------------------------------------------
# Terminators
# ---------------------------------------------------------------------------

class Terminator(Instruction):
    def is_terminator(self):
        return True


class Br(Terminator):
    """Unconditional branch."""

    opcode = "br"

    def __init__(self, dest):
        super().__init__(VOID, [])
        self.dest = dest

    def successors(self):
        return [self.dest]


class CondBr(Terminator):
    """Two-way conditional branch on an i1."""

    opcode = "condbr"

    def __init__(self, cond: Value, if_true, if_false):
        if cond.type != I1:
            raise IRError("condbr condition must be i1")
        super().__init__(VOID, [cond])
        self.if_true = if_true
        self.if_false = if_false

    @property
    def cond(self):
        return self.operands[0]

    def successors(self):
        return [self.if_true, self.if_false]


class Ret(Terminator):
    """Return from the function (and complete the root task instance)."""

    opcode = "ret"

    def __init__(self, value: Optional[Value] = None):
        super().__init__(VOID, [value] if value is not None else [])

    @property
    def value(self):
        return self.operands[0] if self.operands else None

    def successors(self):
        return []


class Detach(Terminator):
    """Tapir ``detach``: spawn the region rooted at ``detached`` as a child
    task and continue in parallel at ``continuation``."""

    opcode = "detach"

    def __init__(self, detached, continuation):
        super().__init__(VOID, [])
        self.detached = detached
        self.continuation = continuation

    def successors(self):
        return [self.detached, self.continuation]


class Reattach(Terminator):
    """Tapir ``reattach``: terminate the detached region begun by the
    matching detach; control in the child ends, parent resumes at
    ``continuation`` (which it already reached asynchronously)."""

    opcode = "reattach"

    def __init__(self, continuation):
        super().__init__(VOID, [])
        self.continuation = continuation

    def successors(self):
        return [self.continuation]


class Sync(Terminator):
    """Tapir ``sync``: wait for every child spawned by this task instance,
    then continue at ``continuation``."""

    opcode = "sync"

    def __init__(self, continuation):
        super().__init__(VOID, [])
        self.continuation = continuation

    def successors(self):
        return [self.continuation]


PARALLEL_OPCODES = ("detach", "reattach", "sync")
