"""Tapir-style parallel IR: types, values, instructions, builder, verifier.

This is the substrate the TAPAS toolchain consumes (paper §III-F): an
LLVM-like IR extended with ``detach``/``reattach``/``sync`` to express
fork-join parallelism directly in the compiler representation.
"""

from repro.ir.basicblock import BasicBlock
from repro.ir.builder import IRBuilder
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
from repro.ir.printer import print_module
from repro.ir.types import (
    F32,
    I1,
    I8,
    I16,
    I32,
    I64,
    VOID,
    FloatType,
    IntType,
    PointerType,
    Type,
    VoidType,
    ptr,
)
from repro.ir.values import (
    Argument,
    Constant,
    GlobalVariable,
    Value,
    const,
)
from repro.ir.verifier import verify_function, verify_module

__all__ = [
    "BasicBlock", "IRBuilder", "Function", "Module",
    "GEP", "Alloca", "BinaryOp", "Br", "Call", "Cast", "CondBr", "Detach",
    "FCmp", "ICmp", "Instruction", "Load", "Reattach", "Ret", "Select",
    "Store", "Sync",
    "print_module",
    "F32", "I1", "I8", "I16", "I32", "I64", "VOID",
    "FloatType", "IntType", "PointerType", "Type", "VoidType", "ptr",
    "Argument", "Constant", "GlobalVariable", "Value", "const",
    "verify_function", "verify_module",
]
