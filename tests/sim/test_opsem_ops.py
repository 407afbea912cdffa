"""Every operation in ``ir/opsem.py``'s tables, through the kernel.

One one-node program per (operation, width), parametrised over the
tables themselves, so an operation added there is covered here with no
further edit. Edge operands (0, ±1, the type's min and max, shift amounts
at and past the width, ``INT_MIN / -1``, f32 rounding, signed zeros,
division by zero) must give opsem's value under dense, compiled (which
must not decline the design) and the CPU baseline, and a trapping
division must raise one ``SimulationError`` message on every engine.
"""

import pytest

from repro.accel import AcceleratorConfig, build_accelerator
from repro.baselines import run_on_cpu
from repro.errors import SimulationError
from repro.ir import Function, IRBuilder, Module, verify_module
from repro.ir.opsem import (CASTS, DIVISIONS, FCMP, FLOAT_OPS, ICMP, INT_OPS,
                            eval_binop, eval_cast, eval_fcmp, eval_icmp)
from repro.ir.types import F32, I1, I8, I32, I64

from tests.sim.test_engine_diff import _engines_and_cpu_agree

INTS = (I8, I32, I64)
LOGICAL = ("and", "or", "xor")
FLOATS = [0.0, -0.0, 1.0, -1.0, 0.1, -2.5, 1e18]
#: (source, target) widths each cast kind is exercised at
CAST_TYPES = {
    "trunc": [(I32, I8), (I64, I32), (I32, I1)],
    "sext": [(I8, I32), (I32, I64)],
    "zext": [(I8, I32), (I1, I32), (I32, I64)],
    "sitofp": [(I32, F32), (I64, F32)],
    "fptosi": [(F32, I32), (F32, I8), (F32, I64)],
    "bitcast": [(I32, I32)],
}


def _edges(type_):
    if type_ == F32:
        return FLOATS
    return sorted({0, 1, type_.min_value, type_.max_value,
                   -1 if type_.min_value else 0})


def _pairs(op, type_):
    """Operand pairs: the edges crossed, plus shift amounts at and past
    the width; division by zero is ``test_division_by_zero_traps``'s."""
    edges = _edges(type_)
    rights = edges + ([type_.bits, type_.bits + 3]
                      if type_ != F32 and type_ != I1 else [])
    pairs = [(a, b) for a in edges for b in rights
             if not (op in DIVISIONS and b == 0)]
    return pairs + [(1, 1)]  # a plain last run: the engines compare it


def _same(x, y):
    """Bit-level agreement: nan is nan, and -0.0 is not 0.0."""
    return type(x) is type(y) and repr(x) == repr(y)


def _one_node(params, ret, emit):
    def make():
        module = Module("op")
        function = Function("op", params, ["a", "b"][:len(params)], ret)
        module.add_function(function)
        builder = IRBuilder(function.add_block("entry"))
        builder.ret(emit(builder, *function.arguments))
        verify_module(module)
        return module
    return make


def _agree(make, runs, expected):
    """Every run's return value is opsem's on dense, compiled and the CPU
    baseline (one accelerator per engine, offloaded once per run)."""
    def check(memory, execute):
        for args in runs:
            result = execute("op", list(args))
            assert _same(result.retval, expected(*args)), (args, result.retval)
        return result

    _engines_and_cpu_agree(make, check)


BINOPS = [(op, t) for op in INT_OPS for t in INTS] \
    + [(op, I1) for op in LOGICAL] + [(op, F32) for op in FLOAT_OPS]


@pytest.mark.parametrize("op, type_", BINOPS,
                         ids=[f"{op}-{t!r}" for op, t in BINOPS])
def test_binop_agrees_with_opsem(op, type_):
    _agree(_one_node([type_, type_], type_,
                     lambda b, x, y: b.binop(op, x, y)),
           _pairs(op, type_), lambda a, b: eval_binop(op, type_, a, b))


COMPARES = [(p, t) for p in ICMP for t in INTS] + [(p, F32) for p in FCMP]


@pytest.mark.parametrize("predicate, type_", COMPARES,
                         ids=[f"{p}-{t!r}" for p, t in COMPARES])
def test_compare_agrees_with_opsem(predicate, type_):
    if type_ == F32:
        emit, expected = "fcmp", lambda a, b: eval_fcmp(predicate, a, b)
    else:
        emit, expected = "icmp", lambda a, b: eval_icmp(predicate, a, b)
    _agree(_one_node([type_, type_], I1,
                     lambda b, x, y: getattr(b, emit)(predicate, x, y)),
           _pairs(predicate, type_), expected)


CAST_CASES = [(kind, src, dst) for kind in CASTS
              for src, dst in CAST_TYPES[kind]]


@pytest.mark.parametrize("kind, source, target", CAST_CASES,
                         ids=[f"{k}-{s!r}-{t!r}" for k, s, t in CAST_CASES])
def test_cast_agrees_with_opsem(kind, source, target):
    values = _edges(source) + ([-3.99, 2.5e9] if source == F32 else [])
    _agree(_one_node([source], target,
                     lambda b, x: b.cast(kind, x, target)),
           [(v,) for v in values],
           lambda v: eval_cast(kind, v, source, target))


def test_tables_cover_the_instruction_set():
    from repro.ir.instructions import (CAST_KINDS, FCMP_PREDICATES,
                                       FLOAT_BINOPS, ICMP_PREDICATES)
    from repro.ir.instructions import INT_BINOPS as INT_OPCODES

    assert (set(INT_OPS), set(FLOAT_OPS), set(ICMP), set(FCMP),
            set(CASTS)) == (INT_OPCODES, FLOAT_BINOPS, ICMP_PREDICATES,
                            FCMP_PREDICATES, CAST_KINDS)
    assert set(CAST_TYPES) == set(CASTS)


DIVIDES = [(op, t) for op in DIVISIONS for t in INTS]


@pytest.mark.parametrize("op, type_", DIVIDES,
                         ids=[f"{op}-{t!r}" for op, t in DIVIDES])
def test_division_by_zero_traps(op, type_):
    make = _one_node([type_, type_], type_, lambda b, x, y: b.binop(op, x, y))
    messages = set()
    for engine in ("dense", "compiled", "cpu"):
        with pytest.raises(SimulationError) as excinfo:
            if engine == "cpu":
                run_on_cpu(make(), "op", [7, 0])
            else:
                accel = build_accelerator(make(),
                                          AcceleratorConfig(engine=engine))
                try:
                    accel.run("op", [7, 0], max_cycles=1000)
                finally:
                    if engine == "compiled":
                        assert accel.sim.compiled_fallback is None
        messages.add(str(excinfo.value))
    assert messages == {DIVISIONS[op]}


def test_an_operation_opsem_lacks_runs_dense_with_the_reason(monkeypatch):
    """Codegen reads every pure node from the tables, so an operation they
    lack declines the design (recorded) instead of being guessed at; the
    dense oracle then reports the unknown operation itself."""
    from repro.ir import opsem

    monkeypatch.delitem(opsem.INT_OPS, "xor")
    accel = build_accelerator(
        _one_node([I32, I32], I32, lambda b, x, y: b.xor(x, y))(),
        AcceleratorConfig(engine="compiled"))
    with pytest.raises(SimulationError, match="unknown operation xor"):
        accel.run("op", [5, 3], max_cycles=1000)
    assert accel.sim.compiled_fallback == "ir/opsem.py has no xor"
