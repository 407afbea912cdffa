"""Tests for CFG utilities and dominator analysis."""

from repro.ir import Function, IRBuilder, const
from repro.ir.types import I32, VOID
from repro.passes import (
    compute_dominators,
    predecessor_map,
    reverse_post_order,
)

from tests.irprograms import build_scale_module


def build_diamond():
    f = Function("diamond", [I32], ["x"], VOID)
    entry = f.add_block("entry")
    left = f.add_block("left")
    right = f.add_block("right")
    join = f.add_block("join")
    b = IRBuilder(entry)
    c = b.icmp("slt", f.arguments[0], const(0))
    b.condbr(c, left, right)
    b.position_at_end(left)
    b.br(join)
    b.position_at_end(right)
    b.br(join)
    b.position_at_end(join)
    b.ret()
    return f, entry, left, right, join


class TestCFG:
    def test_predecessors_of_diamond(self):
        f, entry, left, right, join = build_diamond()
        preds = predecessor_map(f)
        assert preds[entry] == []
        assert preds[left] == [entry]
        assert preds[right] == [entry]
        assert set(preds[join]) == {left, right}

    def test_rpo_starts_at_entry_and_respects_edges(self):
        f, entry, left, right, join = build_diamond()
        rpo = reverse_post_order(f)
        assert rpo[0] is entry
        assert rpo.index(join) > rpo.index(left)
        assert rpo.index(join) > rpo.index(right)

    def test_rpo_handles_loops(self):
        m = build_scale_module()
        f = m.function("scale")
        rpo = reverse_post_order(f)
        assert rpo[0] is f.entry
        assert len(rpo) == len(f.blocks)  # all blocks reachable


class TestDominators:
    def test_entry_dominates_everything(self):
        f, entry, left, right, join = build_diamond()
        dom = compute_dominators(f)
        for block in (entry, left, right, join):
            assert dom.dominates(entry, block)

    def test_branches_do_not_dominate_join(self):
        f, entry, left, right, join = build_diamond()
        dom = compute_dominators(f)
        assert not dom.dominates(left, join)
        assert not dom.dominates(right, join)

    def test_idom_of_join_is_entry(self):
        f, entry, left, right, join = build_diamond()
        dom = compute_dominators(f)
        assert dom.idom[join] is entry
        assert dom.idom[left] is entry
        assert dom.idom[entry] is None

    def test_loop_header_dominates_body(self):
        m = build_scale_module()
        f = m.function("scale")
        dom = compute_dominators(f)
        cond = f.block("cond")
        body = f.block("body")
        latch = f.block("latch")
        assert dom.dominates(cond, body)
        assert dom.dominates(cond, latch)
        assert not dom.dominates(body, cond)

    def test_dominance_is_reflexive(self):
        f, entry, *_ = build_diamond()
        dom = compute_dominators(f)
        assert dom.dominates(entry, entry)
