"""Tests for the optimisation pipeline: one value-numbering walk (folding
and sharing) followed by dead-code elimination."""

import json

import pytest

from repro.ir import Function, IRBuilder, const, verify_function
from repro.ir.types import I8, I32, VOID, ptr
from repro.ir.values import Constant
from repro.passes import optimize_function, optimize_module
from repro.passes.optimize import _cse_key, _value_index

from tests.irprograms import build_matrix_add_module, build_scale_module
from tests.passes.optimize_corpus import GOLDEN, digest, modules


def count_ops(function, opcode):
    return sum(1 for i in function.instructions() if i.opcode == opcode)


class TestConstantFolding:
    def test_folds_constant_chain(self):
        f = Function("f", [], [], I32)
        b = IRBuilder(f.add_block("entry"))
        x = b.add(const(2), const(3))
        y = b.mul(x, const(4))
        b.ret(y)
        assert optimize_function(f) == {"folded": 2, "shared": 0, "dce": 0}
        verify_function(f)
        ret = f.entry.terminator
        assert isinstance(ret.value, Constant)
        assert ret.value.value == 20

    def test_folds_comparison_and_select(self):
        f = Function("f", [], [], I32)
        b = IRBuilder(f.add_block("entry"))
        c = b.icmp("slt", const(1), const(2))
        s = b.select(c, const(10), const(20))
        b.ret(s)
        assert optimize_function(f)["folded"] == 2
        assert f.entry.terminator.value.value == 10

    def test_folds_zext_as_unsigned(self):
        f = Function("f", [], [], I32)
        b = IRBuilder(f.add_block("entry"))
        b.ret(b.cast("zext", const(-13, I8), I32))
        assert count_ops(f, "zext") == 1
        assert optimize_function(f)["folded"] == 1
        assert f.entry.terminator.value.value == 243

    def test_division_by_zero_left_alone(self):
        f = Function("f", [], [], I32)
        b = IRBuilder(f.add_block("entry"))
        q = b.sdiv(const(1), const(0))
        b.ret(q)
        assert optimize_function(f)["folded"] == 0  # runtime's problem
        assert count_ops(f, "sdiv") == 1

    def test_non_constant_operands_untouched(self):
        f = Function("f", [I32], ["x"], I32)
        b = IRBuilder(f.add_block("entry"))
        y = b.add(f.arguments[0], const(1))
        b.ret(y)
        assert optimize_function(f)["folded"] == 0
        assert f.entry.terminator.value is y


class TestDCE:
    def test_removes_unused_pure_ops(self):
        f = Function("f", [I32], ["x"], I32)
        b = IRBuilder(f.add_block("entry"))
        b.add(f.arguments[0], const(1))     # dead
        b.mul(f.arguments[0], const(2))     # dead
        live = b.sub(f.arguments[0], const(3))
        b.ret(live)
        assert optimize_function(f)["dce"] == 2
        assert count_ops(f, "add") == 0
        assert count_ops(f, "sub") == 1
        verify_function(f)

    def test_removes_transitively_dead_chains(self):
        f = Function("f", [I32], ["x"], VOID)
        b = IRBuilder(f.add_block("entry"))
        a = b.add(f.arguments[0], const(1))
        b.mul(a, const(2))  # dead, and then `a` becomes dead
        b.ret()
        assert optimize_function(f)["dce"] == 2

    def test_memory_ops_never_removed(self):
        f = Function("f", [ptr(I32)], ["p"], VOID)
        b = IRBuilder(f.add_block("entry"))
        b.load(f.arguments[0])   # unused load: stays (it is not _PURE)
        b.store(const(1), f.arguments[0])
        b.ret()
        assert optimize_function(f)["dce"] == 0
        assert count_ops(f, "load") == 1
        assert count_ops(f, "store") == 1


class TestCSE:
    def test_shares_duplicate_ops(self):
        f = Function("f", [I32, I32], ["x", "y"], I32)
        b = IRBuilder(f.add_block("entry"))
        a1 = b.add(f.arguments[0], f.arguments[1])
        a2 = b.add(f.arguments[0], f.arguments[1])  # duplicate
        total = b.mul(a1, a2)
        b.ret(total)
        assert optimize_function(f)["shared"] == 1
        assert count_ops(f, "add") == 1
        mul = next(i for i in f.instructions() if i.opcode == "mul")
        assert mul.operands[0] is mul.operands[1]
        verify_function(f)

    def test_commutative_ops_matched_either_order(self):
        f = Function("f", [I32, I32], ["x", "y"], I32)
        b = IRBuilder(f.add_block("entry"))
        a1 = b.add(f.arguments[0], f.arguments[1])
        a2 = b.add(f.arguments[1], f.arguments[0])
        b.ret(b.xor(a1, a2))
        assert optimize_function(f)["shared"] == 1

    def test_non_commutative_order_respected(self):
        f = Function("f", [I32, I32], ["x", "y"], I32)
        b = IRBuilder(f.add_block("entry"))
        a1 = b.sub(f.arguments[0], f.arguments[1])
        a2 = b.sub(f.arguments[1], f.arguments[0])
        b.ret(b.xor(a1, a2))
        assert optimize_function(f)["shared"] == 0

    def test_loads_never_shared(self):
        f = Function("f", [ptr(I32)], ["p"], I32)
        b = IRBuilder(f.add_block("entry"))
        l1 = b.load(f.arguments[0])
        l2 = b.load(f.arguments[0])  # may read a different value later
        b.ret(b.add(l1, l2))
        assert optimize_function(f)["shared"] == 0
        assert count_ops(f, "load") == 2


class TestPipeline:
    def test_fixpoint_combines_passes(self):
        """Folding exposes sharing and sharing exposes dead code: one walk
        and one DCE reach the fixpoint, so a second run changes nothing."""
        f = Function("f", [I32], ["x"], I32)
        b = IRBuilder(f.add_block("entry"))
        k = b.add(const(1), const(2))         # folds to 3
        a1 = b.add(f.arguments[0], k)
        a2 = b.add(f.arguments[0], k)         # shared after the fold
        b.mul(a2, const(0))                   # dead
        b.ret(a1)
        assert optimize_function(f) == {"folded": 1, "shared": 1, "dce": 1}
        assert optimize_function(f) == {"folded": 0, "shared": 0, "dce": 0}
        verify_function(f)

    def test_workload_correctness_preserved(self):
        """Optimised modules still compute the right answers end to end."""
        from repro.accel import build_accelerator
        from repro.ir.types import I32 as I32_

        module = build_matrix_add_module(rows_stride=6)
        optimize_module(module)
        acc = build_accelerator(module)
        n = 6
        A = acc.memory.alloc_array(I32_, range(36))
        B = acc.memory.alloc_array(I32_, range(36))
        C = acc.memory.alloc_array(I32_, [0] * 36)
        acc.run("matrix_add", [A, B, C, n])
        assert acc.memory.read_array(C, I32_, 36) == [2 * i for i in range(36)]

    def test_parallel_markers_survive(self):
        module = build_scale_module()
        optimize_module(module)
        f = module.function("scale")
        opcodes = [i.opcode for i in f.instructions()]
        assert "detach" in opcodes and "sync" in opcodes


class TestCSEKeyDeterminism:
    """The commutative canonicalisation must not depend on ``id()``."""

    def _commutative_pair(self):
        f = Function("f", [I32, I32], ["x", "y"], I32)
        b = IRBuilder(f.add_block("entry"))
        a1 = b.add(f.arguments[0], f.arguments[1])
        a2 = b.add(f.arguments[1], f.arguments[0])
        b.ret(b.xor(a1, a2))
        return f, a1, a2

    def test_swapped_operands_same_key(self):
        f, a1, a2 = self._commutative_pair()
        index = _value_index(f)
        assert _cse_key(a1, index) == _cse_key(a2, index)

    def test_key_is_stable_across_builds(self):
        """Two structurally identical functions produce identical keys —
        the old ``id()``-based sort made them differ between runs."""
        keys = []
        for _ in range(2):
            f, a1, a2 = self._commutative_pair()
            index = _value_index(f)
            keys.append((_cse_key(a1, index), _cse_key(a2, index)))
        assert keys[0] == keys[1]

    def test_key_contains_no_memory_addresses(self):
        f, a1, _ = self._commutative_pair()

        def flat(obj):
            if isinstance(obj, tuple):
                for part in obj:
                    yield from flat(part)
            else:
                yield obj
        for leaf in flat(_cse_key(a1, _value_index(f))):
            if isinstance(leaf, int):
                assert leaf < 1000  # an operand ordinal, not an id()


class TestGVN:
    def test_shares_across_dominated_blocks(self):
        f = Function("f", [I32], ["x"], VOID)
        entry = f.add_block("entry")
        other = f.add_block("other")
        b = IRBuilder(entry)
        first = b.add(f.arguments[0], const(1))
        slot = b.alloca(I32)
        b.store(first, slot)
        b.br(other)
        b.position_at_end(other)
        dup = b.add(f.arguments[0], const(1))
        b.store(dup, slot)
        b.ret()
        assert optimize_function(f)["shared"] == 1
        assert count_ops(f, "add") == 1
        assert next(i for i in f.instructions()
                    if i.opcode == "store" and i.parent.name == "other"
                    ).operands[0] is first
        verify_function(f)

    def test_does_not_share_across_siblings(self):
        """Neither branch arm dominates the other: both copies stay."""
        f = Function("f", [I32], ["x"], I32)
        entry = f.add_block("entry")
        left = f.add_block("left")
        right = f.add_block("right")
        join = f.add_block("join")
        b = IRBuilder(entry)
        cond = b.icmp("slt", f.arguments[0], const(0))
        slot = b.alloca(I32)
        b.condbr(cond, left, right)
        b.position_at_end(left)
        b.store(b.add(f.arguments[0], const(7)), slot)
        b.br(join)
        b.position_at_end(right)
        b.store(b.add(f.arguments[0], const(7)), slot)
        b.br(join)
        b.position_at_end(join)
        b.ret(b.load(slot))
        assert optimize_function(f)["shared"] == 0
        assert count_ops(f, "add") == 2

    def test_detach_region_is_a_barrier(self):
        """A value from the parent region is never forwarded into a
        detached region — that would change the task's live-ins."""
        f = Function("f", [I32, ptr(I32)], ["x", "p"], VOID)
        entry = f.add_block("entry")
        body = f.add_block("body")
        cont = f.add_block("cont")
        done = f.add_block("done")
        b = IRBuilder(entry)
        outer = b.add(f.arguments[0], const(1))
        b.store(outer, f.arguments[1])
        b.detach(body, cont)
        b.position_at_end(body)
        inner = b.add(f.arguments[0], const(1))  # same expression, new region
        b.store(inner, f.arguments[1])
        b.reattach(cont)
        b.position_at_end(cont)
        b.sync(done)
        b.position_at_end(done)
        b.ret()
        assert optimize_function(f)["shared"] == 0
        assert count_ops(f, "add") == 2
        assert inner.parent is body  # the region keeps its own copy
        verify_function(f)

    def test_counted_as_gvn_in_pipeline_totals(self):
        """Sharing across blocks and within one block is one count."""
        f = Function("f", [I32], ["x"], VOID)
        entry = f.add_block("entry")
        other = f.add_block("other")
        b = IRBuilder(entry)
        slot = b.alloca(I32)
        b.store(b.mul(f.arguments[0], f.arguments[0]), slot)
        b.br(other)
        b.position_at_end(other)
        b.store(b.mul(f.arguments[0], f.arguments[0]), slot)
        b.ret()
        assert optimize_function(f) == {"folded": 0, "shared": 1, "dce": 0}
        assert count_ops(f, "mul") == 1

    def test_module_totals_report_gvn(self):
        module = build_matrix_add_module()
        totals = optimize_module(module)
        assert sorted(totals) == ["dce", "folded", "shared"]

    def test_workloads_still_correct_with_gvn(self):
        from repro.accel import build_accelerator
        from repro.ir.types import I32 as I32_

        module = build_scale_module(work_ops=3)
        optimize_module(module)
        acc = build_accelerator(module)
        data = acc.memory.alloc_array(I32_, [1, 2, 3, 4])
        acc.run("scale", [data, 4])
        assert acc.memory.read_array(data, I32_, 4) == [4, 5, 6, 7]


class TestGolden:
    """Every corpus module optimises to the printed IR the four-pass
    fixpoint optimiser produced, byte for byte (``optimize_corpus``)."""

    DIGESTS = json.loads(GOLDEN.read_text())

    def test_corpus_is_complete(self):
        assert [name for name, _ in modules()] == list(self.DIGESTS)

    @pytest.mark.parametrize("name,build", modules(),
                             ids=[name for name, _ in modules()])
    def test_printed_ir_matches_golden(self, name, build):
        assert digest(build()) == self.DIGESTS[name]


class TestUnreachable:
    def test_unreachable_block_folds_shares_and_follows(self):
        from repro.ir import print_module
        from tests.passes.optimize_corpus import build_unreachable_module

        module = build_unreachable_module()
        assert optimize_module(module) == {"folded": 1, "shared": 2, "dce": 0}
        dead = print_module(module).split("dead:\n")[1]
        assert dead.splitlines()[:3] == [
            "  %add4 = add i32 %x, 6",
            "  %add6 = add i32 %add1, %add4",   # entry's add, not next's
            "  store %add6, %p"]
        assert "%add7 = add i32 %x, 1" in dead  # no table: not shared

    def test_use_before_definition_among_unreachable_blocks(self):
        """``early`` precedes ``late`` in function order but is reached
        from it, so its operand names a value replaced after ``early`` was
        visited: the walk rewrites it at the end, leaving no operand on a
        removed instruction."""
        f = Function("f", [I32, ptr(I32)], ["x", "p"], VOID)
        entry, early, late = (f.add_block(n) for n in ("entry", "early", "late"))
        b = IRBuilder(entry)
        b.ret()
        b.position_at_end(late)
        first = b.add(f.arguments[0], const(1))
        dup = b.add(f.arguments[0], const(1))
        b.store(first, f.arguments[1])
        b.br(early)
        b.position_at_end(early)
        b.store(dup, f.arguments[1])
        b.ret()
        assert optimize_function(f)["shared"] == 1
        assert early.instructions[0].operands[0] is first
        verify_function(f)
