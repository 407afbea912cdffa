"""The shared pure-instruction dispatch (`opsem.eval_pure`)."""

import pytest

from repro.accel import AcceleratorConfig, build_accelerator
from repro.baselines.cpu import run_on_cpu
from repro.errors import SimulationError
from repro.ir import I32, Function, IRBuilder, Module, const
from repro.ir.opsem import PURE, eval_pure


def _slot_gep_module():
    """``return *(&slot + n)`` — address arithmetic on a register slot."""
    module = Module("slotgep")
    function = Function("f", [I32], ["n"], I32)
    module.add_function(function)
    b = IRBuilder(function.add_block("entry"))
    slot = b.alloca(I32, "s")
    b.ret(b.load(b.gep(slot, [function.arguments[0]], [4])))
    return module


@pytest.mark.parametrize("engine", ["dense", "compiled", "cpu"])
def test_gep_on_a_register_slot_is_refused_everywhere(engine):
    with pytest.raises(SimulationError, match="register slot"):
        if engine == "cpu":
            run_on_cpu(_slot_gep_module(), "f", [1])
        else:
            build_accelerator(
                _slot_gep_module(), AcceleratorConfig(engine=engine)
            ).run("f", [1], max_cycles=1000)


def test_eval_pure_reads_operands_through_resolve_and_rejects_the_rest():
    function = Function("g", [I32], ["x"], I32)
    b = IRBuilder(function.add_block("entry"))
    total = b.add(function.arguments[0], const(2))
    picked = b.select(b.icmp("slt", total, const(0)), const(7), total)
    ret = b.ret(picked)
    env = {function.arguments[0]: 40}

    def resolve(value):
        return env[value] if value in env else value.value

    for inst in function.blocks[0].instructions[:-1]:
        assert isinstance(inst, PURE)
        env[inst] = eval_pure(inst, resolve)
    assert env[picked] == 42
    with pytest.raises(SimulationError, match="cannot execute ret"):
        eval_pure(ret, resolve)
