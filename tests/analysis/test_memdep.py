"""Affine memory-dependence analysis: address resolution and alias oracle."""

from repro.analysis.memdep import (
    DISJOINT,
    MAY,
    MUST,
    ROOT_ARGUMENT,
    ROOT_GLOBAL,
    ROOT_INSTANCE,
    ROOT_UNKNOWN,
    AddressExpr,
    MemEffect,
    PointerResolver,
    compare_effects,
    compute_summaries,
    effects_of_blocks,
)
from repro.frontend import compile_source
from repro.ir.instructions import Load, Store
from repro.ir.values import Argument, GlobalVariable


def expr(root_kind, root, const=0, terms=None, exact=True):
    return AddressExpr(root_kind, root, const, terms, exact)


def eff(address, size=4, write=True):
    return MemEffect(address, size, write, ops=())


ARG_A = Argument("a", None, 0)
ARG_B = Argument("b", None, 1)
GLOB = GlobalVariable("g", None, 64)


class TestRootsVerdict:
    def test_same_root_same_offset_must(self):
        a = eff(expr(ROOT_ARGUMENT, ARG_A, 8))
        b = eff(expr(ROOT_ARGUMENT, ARG_A, 8))
        assert compare_effects(a, b, [], False) == MUST

    def test_same_root_disjoint_offsets(self):
        a = eff(expr(ROOT_ARGUMENT, ARG_A, 0))
        b = eff(expr(ROOT_ARGUMENT, ARG_A, 4))
        assert compare_effects(a, b, [], False) == DISJOINT

    def test_partial_overlap_is_must(self):
        a = eff(expr(ROOT_ARGUMENT, ARG_A, 0), size=8)
        b = eff(expr(ROOT_ARGUMENT, ARG_A, 4), size=4)
        assert compare_effects(a, b, [], False) == MUST

    def test_distinct_arguments_disjoint(self):
        a = eff(expr(ROOT_ARGUMENT, ARG_A))
        b = eff(expr(ROOT_ARGUMENT, ARG_B))
        assert compare_effects(a, b, [], False) == DISJOINT

    def test_argument_vs_global_disjoint(self):
        # documented restrict-style assumption
        a = eff(expr(ROOT_ARGUMENT, ARG_A))
        b = eff(expr(ROOT_GLOBAL, GLOB))
        assert compare_effects(a, b, [], False) == DISJOINT

    def test_unknown_root_is_may(self):
        a = eff(expr(ROOT_UNKNOWN, None))
        b = eff(expr(ROOT_ARGUMENT, ARG_A))
        assert compare_effects(a, b, [], False) == MAY

    def test_instance_roots_disjoint_from_everything(self):
        a = eff(expr(ROOT_INSTANCE, ARG_A))
        for other in (expr(ROOT_INSTANCE, ARG_A), expr(ROOT_GLOBAL, GLOB),
                      expr(ROOT_ARGUMENT, ARG_A)):
            assert compare_effects(a, eff(other), [], False) == DISJOINT

    def test_widened_expr_is_may(self):
        a = eff(expr(ROOT_ARGUMENT, ARG_A).widened())
        b = eff(expr(ROOT_ARGUMENT, ARG_A, 100))
        assert compare_effects(a, b, [], False) == MAY


def first_function(source, name="m"):
    module = compile_source(source, name)
    return module, module.functions[0]


def shared_accesses_of(block):
    from repro.passes.dataflow_graph import is_register_access

    return [inst for inst in block.instructions
            if isinstance(inst, (Load, Store)) and not is_register_access(inst)]


def shared_accesses(function):
    """The function's non-register loads/stores, via the summary machinery."""
    return [inst for block in function.blocks
            for inst in shared_accesses_of(block)]


class TestPointerResolver:
    def test_affine_index_resolves_to_argument_root(self):
        _, f = first_function("""
        func f(a: i32*, i: i32) {
          a[i + 3] = 7;
        }
        """)
        store = next(i for i in shared_accesses(f) if isinstance(i, Store))
        address = PointerResolver(f).resolve(store.pointer)
        assert address.root_kind == ROOT_ARGUMENT
        assert address.root is f.arguments[0]
        assert address.const == 12          # (i + 3) * 4 bytes
        assert list(address.terms.values()) == [4]
        assert address.exact

    def test_sext_index_is_looked_through_zext_is_not(self):
        """``zext`` moves a negative index (i8 -1 -> 255), so unlike
        ``sext`` it is a term of its own, not an alias of its operand."""
        from repro.ir import Function, IRBuilder
        from repro.ir.types import I8, I32, I64, VOID, ptr

        f = Function("f", [ptr(I32), I8], ["a", "i"], VOID)
        b = IRBuilder(f.add_block("entry"))
        a, i = f.arguments
        signed = b.gep(a, [b.cast("sext", i, I64)], [4])
        unsigned = b.cast("zext", i, I64)
        resolver = PointerResolver(f)
        assert resolver.resolve(signed).terms == {i: 4}
        assert resolver.resolve(b.gep(a, [unsigned], [4])).terms == {
            unsigned: 4}

    def test_loop_induction_recognised_as_step(self):
        """a[i] vs a[i] across instances is disjoint (the induction term
        shifts by the step); a[i] vs a[i+1] collides with the neighbour
        instance."""
        from repro.analysis.mhp import spawn_contexts
        from repro.passes import extract_tasks

        module, f = first_function("""
        func f(a: i32*, n: i32) {
          cilk_for (var i: i32 = 0; i < n; i = i + 1) {
            a[i] = a[i + 1];
          }
        }
        """)
        ctx = spawn_contexts(extract_tasks(module))[0]
        context = list(ctx.par_blocks) + list(ctx.region)
        resolver = PointerResolver(f)
        accesses = [i for block in ctx.region for i in shared_accesses_of(block)]
        store = next(i for i in accesses if isinstance(i, Store))
        load = next(i for i in accesses if isinstance(i, Load))
        st_eff = MemEffect(resolver.resolve(store.pointer), 4, True, (store,))
        ld_eff = MemEffect(resolver.resolve(load.pointer), 4, False, (load,))
        assert compare_effects(st_eff, st_eff, context, True) == DISJOINT
        assert compare_effects(st_eff, ld_eff, context, True) == MUST


class TestSummaries:
    def test_callee_effects_substituted_at_callsite(self):
        module, _ = first_function("""
        func inc(p: i32*) {
          p[0] = p[0] + 1;
        }
        func caller(a: i32*) {
          inc(a);
        }
        """, "subst")
        caller = module.function("caller")
        summaries = compute_summaries(module)
        effects = effects_of_blocks(caller.blocks, PointerResolver(caller),
                                    summaries)
        writes = [e for e in effects if e.is_write]
        assert len(writes) == 1
        assert writes[0].expr.root_kind == ROOT_ARGUMENT
        assert writes[0].expr.root is caller.arguments[0]
        assert writes[0].via  # provenance: imported through the call

    def test_callee_frame_becomes_instance_root(self):
        module, _ = first_function("""
        func leaf(x: i32) -> i32 {
          var t: i32 = x + 1;
          return t;
        }
        func caller(a: i32*) {
          a[0] = leaf(a[0]);
        }
        """, "frames")
        caller = module.function("caller")
        summaries = compute_summaries(module)
        effects = effects_of_blocks(caller.blocks, PointerResolver(caller),
                                    summaries)
        kinds = {e.expr.root_kind for e in effects}
        assert ROOT_INSTANCE not in kinds or all(
            compare_effects(e, o, [], False) == DISJOINT
            for e in effects if e.expr.root_kind == ROOT_INSTANCE
            for o in effects if o is not e)

    def test_recursive_summary_reaches_fixpoint(self):
        module, f = first_function("""
        func down(a: i32*, n: i32) {
          if (n > 0) {
            a[n] = n;
            down(a, n - 1);
          }
        }
        """, "rec")
        summaries = compute_summaries(module)
        writes = [e for e in summaries[f] if e.is_write]
        assert writes
        assert all(e.expr.root_kind == ROOT_ARGUMENT for e in writes)
