"""Tests for region live-ins, dataflow-graph construction and loop
detection."""

from repro.ir import Detach, Function, IRBuilder, const
from repro.ir.types import I32, VOID
from repro.passes import (
    build_block_dfg,
    classify,
    find_loops,
    is_register_access,
    region_live_ins,
)

from tests.irprograms import (
    build_matrix_add_module,
    build_scale_module,
    build_serial_sum_module,
)


class TestLiveness:
    def test_region_live_ins_excludes_internal_defs(self):
        m = build_scale_module()
        f = m.function("scale")
        det = f.block("detached")
        live = region_live_ins([det])
        internal = set(det.instructions)
        assert not (live & internal)
        assert f.arguments[0] in live  # pointer a


class TestClassify:
    def test_register_vs_memory_access(self):
        m = build_serial_sum_module()
        f = m.function("sum")
        body = f.block("body")
        loads = [i for i in body.instructions if i.opcode == "load"]
        # loads: a[i] (memory), acc (register)
        kinds = sorted(classify(load) for load in loads)
        assert kinds == ["load", "regread"]

    def test_frame_alloca_counts_as_memory(self):
        f = Function("g", [], [], VOID)
        b = IRBuilder(f.add_block("entry"))
        frame = b.alloca(I32, in_frame=True)
        ld = b.load(frame)
        b.ret()
        assert not is_register_access(ld)
        assert classify(ld) == "load"

    def test_arith_classes(self):
        f = Function("h", [I32, I32], ["x", "y"], VOID)
        b = IRBuilder(f.add_block("entry"))
        x, y = f.arguments
        assert classify(b.add(x, y)) == "alu"
        assert classify(b.mul(x, y)) == "mul"
        assert classify(b.sdiv(x, y)) == "div"
        assert classify(b.fadd(const(1.0), const(2.0))) == "falu"
        assert classify(b.fdiv(const(1.0), const(2.0))) == "fdiv"


class TestBlockDFG:
    def test_def_use_edges(self):
        m = build_scale_module()
        f = m.function("scale")
        det = f.block("detached")
        dfg = build_block_dfg(det)
        # store of the incremented value depends on the add chain
        store_node = dfg.nodes[-2]  # last body instruction before reattach
        assert store_node.inst.opcode == "store"
        assert store_node.deps  # depends on add + gep

    def test_independent_loads_have_no_mutual_deps(self):
        m = build_matrix_add_module()
        f = m.function("matrix_add")
        det = f.block("body_detached")
        dfg = build_block_dfg(det)
        load_nodes = [n for n in dfg.nodes if n.kind == "load"]
        assert len(load_nodes) == 2
        a, b = load_nodes
        assert a.index not in b.deps and b.index not in a.deps

    def test_store_ordered_after_loads(self):
        m = build_matrix_add_module()
        det = m.function("matrix_add").block("body_detached")
        dfg = build_block_dfg(det)
        store = next(n for n in dfg.nodes if n.kind == "store")
        load_indices = {n.index for n in dfg.nodes if n.kind == "load"}
        assert load_indices <= set(store.deps)

    def test_critical_path_respects_latency(self):
        m = build_scale_module(work_ops=10)
        det = m.function("scale").block("detached")
        dfg = build_block_dfg(det)
        unit = dfg.critical_path(lambda n: 1)
        slow_alu = dfg.critical_path(lambda n: 3 if n.kind == "alu" else 1)
        assert slow_alu > unit
        # ten chained adds dominate the path
        assert unit >= 12

    def test_terminator_extra_deps(self):
        m = build_scale_module()
        f = m.function("scale")
        cond = f.block("cond")
        i_val = cond.instructions[0]
        body = f.block("body")
        dfg = build_block_dfg(body, extra_terminator_deps=[i_val])
        # i_val is defined in another block, so no intra-block edge appears
        assert dfg.nodes[-1].deps == []
        # but a value defined in the same block would create one:
        dfg2 = build_block_dfg(cond, extra_terminator_deps=[i_val])
        term = dfg2.nodes[-1]
        (node,) = [n for n in dfg2.nodes if n.inst is i_val]
        assert node.index in term.deps


class TestLoops:
    def test_scale_has_one_loop(self):
        m = build_scale_module()
        loops = find_loops(m.function("scale"))
        assert len(loops) == 1
        assert loops[0].header.name == "cond"
        assert any(isinstance(b.terminator, Detach) for b in loops[0].blocks)

    def test_matrix_add_has_nested_loops(self):
        m = build_matrix_add_module()
        loops = find_loops(m.function("matrix_add"))
        assert len(loops) == 2
        # outermost first: range and performance analysis rely on the order
        assert loops[0].blocks > loops[1].blocks

    def test_serial_loop_does_not_spawn(self):
        m = build_serial_sum_module()
        loops = find_loops(m.function("sum"))
        assert len(loops) == 1
        assert not any(isinstance(b.terminator, Detach) for b in loops[0].blocks)
