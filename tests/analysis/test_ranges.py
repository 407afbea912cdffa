"""Value-range analysis: interval algebra, transfer soundness vs the
executable opsem, and end-to-end inference on compiled programs."""

import random

import pytest

from repro.accel.generator import generate
from repro.analysis.ranges import (
    Interval,
    bits_for,
    full_range,
    infer_design_ranges,
    infer_module_ranges,
    refine_by_predicate,
    transfer_binop,
    transfer_cast,
    transfer_icmp,
)
from repro.errors import SimulationError
from repro.frontend import compile_source
from repro.ir.instructions import INT_BINOPS, ICMP_PREDICATES
from repro.ir.opsem import eval_binop, eval_cast, eval_icmp
from repro.ir.types import I1, I8, I16, I32, I64


# -- interval algebra --------------------------------------------------------

def test_interval_basics():
    a = Interval(-3, 7)
    assert a.contains(-3) and a.contains(7) and not a.contains(8)
    assert a.join(Interval(5, 9)) == Interval(-3, 9)
    assert a.meet(Interval(0, 100)) == Interval(0, 7)
    assert a.meet(Interval(50, 60)) is None
    with pytest.raises(ValueError):
        Interval(1, 0)


def test_widen_moves_unstable_bounds_to_type_extremes():
    full = full_range(I32)
    widened = Interval(0, 10).widen(Interval(0, 11), full)
    assert widened.lo == 0 and widened.hi == full.hi
    widened = Interval(0, 10).widen(Interval(-1, 10), full)
    assert widened.lo == full.lo and widened.hi == 10


def test_bits_for():
    assert bits_for(Interval(0, 0)) == 1
    assert bits_for(Interval(0, 1)) == 1
    assert bits_for(Interval(0, 255)) == 8
    assert bits_for(Interval(0, 2040)) == 11
    assert bits_for(Interval(-1, 0)) == 1
    assert bits_for(Interval(-128, 127)) == 8
    assert bits_for(Interval(-129, 127)) == 9


def test_full_range_matches_types():
    assert full_range(I1) == Interval(0, 1)
    assert full_range(I8) == Interval(-128, 127)
    assert full_range(I32) == Interval(-(1 << 31), (1 << 31) - 1)


# -- transfer soundness vs the executable semantics --------------------------

def _random_interval(rng, full):
    lo = rng.randint(full.lo, full.hi)
    hi = rng.randint(lo, full.hi)
    return Interval(lo, hi)


@pytest.mark.parametrize("op", sorted(INT_BINOPS))
@pytest.mark.parametrize("type_", [I8, I16, I32], ids=lambda t: f"i{t.bits}")
def test_binop_transfer_is_sound(op, type_):
    """For random operand intervals and random points inside them, the
    concrete opsem result must land inside the abstract result."""
    rng = random.Random(hash((op, type_.bits)) & 0xFFFF)
    full = full_range(type_)
    for _ in range(200):
        a, b = _random_interval(rng, full), _random_interval(rng, full)
        out = transfer_binop(op, a, b, type_)
        for _ in range(8):
            x = rng.randint(a.lo, a.hi)
            y = rng.randint(b.lo, b.hi)
            try:
                concrete = eval_binop(op, type_, x, y)
            except SimulationError:
                continue  # division by zero: no defined result to contain
            assert out.contains(concrete), (
                f"{op}: {x} op {y} = {concrete} outside "
                f"[{out.lo}, {out.hi}] for a=[{a.lo},{a.hi}] "
                f"b=[{b.lo},{b.hi}]")


@pytest.mark.parametrize("predicate", sorted(ICMP_PREDICATES))
def test_icmp_transfer_is_sound(predicate):
    rng = random.Random(hash(predicate) & 0xFFFF)
    full = full_range(I16)
    for _ in range(300):
        a, b = _random_interval(rng, full), _random_interval(rng, full)
        out = transfer_icmp(predicate, a, b)
        for _ in range(6):
            x, y = rng.randint(a.lo, a.hi), rng.randint(b.lo, b.hi)
            assert out.contains(eval_icmp(predicate, x, y))


@pytest.mark.parametrize("kind", ["trunc", "sext", "zext"])
@pytest.mark.parametrize("src,dst", [(I32, I8), (I8, I32), (I16, I64),
                                     (I32, I32)])
def test_cast_transfer_is_sound(kind, src, dst):
    if kind == "trunc" and dst.bits > src.bits:
        return
    rng = random.Random(hash((kind, src.bits, dst.bits)) & 0xFFFF)
    full = full_range(src)
    for _ in range(200):
        a = _random_interval(rng, full)
        out = transfer_cast(kind, a, src, dst)
        for _ in range(6):
            x = rng.randint(a.lo, a.hi)
            assert out.contains(eval_cast(kind, x, src, dst))


def test_refine_by_predicate():
    a, b = Interval(0, 100), Interval(10, 10)
    ra, rb = refine_by_predicate("slt", a, b)
    assert ra == Interval(0, 9)
    ra, rb = refine_by_predicate("sge", a, b)
    assert ra == Interval(10, 100)
    ra, rb = refine_by_predicate("eq", a, b)
    assert ra == Interval(10, 10)
    # infeasible comparison refines the constrained side to None
    ra, rb = refine_by_predicate("slt", Interval(50, 60), Interval(0, 0))
    assert ra is None


# -- whole-program inference --------------------------------------------------

NARROW_SUM = """
func narrow_sum(a: i32*) -> i32 {
  var s: i32 = 0;
  var i: i32 = 0;
  while (i < 8) {
    s = s + (a[i] & 255);
    i = i + 1;
  }
  return s;
}
"""


def _cells_by_name(ranges):
    return {alloca.name: interval
            for alloca, interval in ranges.cell_ranges.items()}


def test_narrow_sum_accumulator_bounds():
    """The headline result: a masked 8-trip accumulator is proven to
    [0, 2040] (11 bits), the induction cell to [0, 8] (4 bits), and the
    return range follows the accumulator."""
    module = compile_source(NARROW_SUM, "narrow_sum")
    design = generate(module)
    ranges = infer_design_ranges(design, entry="narrow_sum")
    cells = _cells_by_name(ranges)
    assert cells["s"] == Interval(0, 2040)
    assert cells["i"] == Interval(0, 8)
    assert bits_for(cells["s"]) == 11
    assert bits_for(cells["i"]) == 4
    fn = module.functions[0]
    assert ranges.ret_ranges[fn] == Interval(0, 2040)


def test_branch_refinement_bounds_loop_counter():
    source = """
func count(n: i32) -> i32 {
  var i: i32 = 0;
  while (i < n) {
    i = i + 1;
  }
  return i;
}
"""
    module = compile_source(source, "count")
    ranges = infer_module_ranges(module, entry="count")
    cells = _cells_by_name(ranges)
    # n is TOP, but i >= 0 always holds and i <= INT_MAX after widening
    assert cells["i"].lo == 0


def test_interprocedural_argument_ranges():
    source = """
func helper(x: i32) -> i32 {
  return x + 1;
}

func entry(a: i32*) -> i32 {
  var r: i32 = spawn helper(5);
  sync;
  return r;
}
"""
    module = compile_source(source, "interproc")
    design = generate(module)
    ranges = infer_design_ranges(design, entry="entry")
    helper = next(f for f in module.functions if f.name == "helper")
    # helper is only ever spawned with 5, so its argument and return
    # ranges are singletons
    assert ranges.arg_ranges[helper][0] == Interval(5, 5)
    assert ranges.ret_ranges[helper] == Interval(6, 6)


def test_entry_none_makes_all_arguments_top():
    module = compile_source(NARROW_SUM, "narrow_sum")
    ranges = infer_module_ranges(module)
    # cells still narrow (they do not depend on the pointer argument)
    cells = _cells_by_name(ranges)
    assert cells["i"] == Interval(0, 8)


def test_channel_bits_narrower_than_declared():
    module = compile_source(NARROW_SUM, "narrow_sum")
    design = generate(module)
    ranges = infer_design_ranges(design, entry="narrow_sum")
    for task in design.graph.tasks:
        widths = ranges.channel_bits(task)
        declared = [v.type.size_bytes * 8 for v in task.args]
        assert all(w <= d for w, d in zip(widths, declared))


# -- summary rounds: a kept fixpoint equals a recomputed one -----------------

UNSTABLE = """
func grow(n: i32, a: i32*) -> i32 {
  if (n > 1000) {
    return n;
  }
  var r: i32 = spawn grow(n + 3, a);
  sync;
  a[0] = r;
  return r + 1;
}

func top(a: i32*) -> i32 {
  var x: i32 = spawn grow(1, a);
  sync;
  return x;
}
"""


def _range_corpus():
    import glob
    import os

    from repro.workloads import REGISTRY

    for name in REGISTRY.names():
        yield name, REGISTRY.get(name).fresh_module
    root = os.path.join(os.path.dirname(__file__), "..", "..", "examples",
                        "programs", "*.cilk")
    for path in sorted(glob.glob(root)):
        with open(path) as handle:
            text = handle.read()
        yield os.path.basename(path), (
            lambda text=text: compile_source(text, "example"))
    yield "unstable", lambda: compile_source(UNSTABLE, "unstable")


_CORPUS = list(_range_corpus())


def _infer_counting(design, calls, monkeypatch):
    """Run ``infer_module_ranges`` once per kwargs dict in ``calls``;
    returns the results and the number of block transfers they cost."""
    from repro.analysis import ranges as ranges_mod

    real = ranges_mod._FunctionAnalysis._transfer
    transfers = [0]

    def counting(self, block, facts):
        transfers[0] += 1
        return real(self, block, facts)

    with monkeypatch.context() as patch:
        patch.setattr(ranges_mod._FunctionAnalysis, "_transfer", counting)
        results = [infer_module_ranges(design.module, **kw) for kw in calls]
    return results, transfers[0]


def _recompute_every_round(monkeypatch):
    """A fresh object never equals the remembered inputs: every round
    recomputes every function, as before the memo existed."""
    from repro.analysis import ranges as ranges_mod

    monkeypatch.setattr(ranges_mod._FunctionAnalysis, "_summary_inputs",
                        lambda self: object())


@pytest.mark.parametrize("build", [b for _n, b in _CORPUS],
                         ids=[n for n, _b in _CORPUS])
def test_kept_fixpoints_equal_recomputed_ones(build, monkeypatch):
    """``infer_module_ranges`` keeps a function's fixpoint across summary
    rounds while the summary entries it reads are unchanged. The result
    must be *equal* to re-running every function every round — in the
    PerfModel call mode (bare) and the lint one (``design=``, each
    function as ``entry=``)."""
    design = generate(build())
    calls = [dict()] + [dict(design=design, entry=f.name)
                        for f in design.module.functions]
    kept, kept_work = _infer_counting(design, calls, monkeypatch)
    _recompute_every_round(monkeypatch)
    recomputed, full_work = _infer_counting(design, calls, monkeypatch)
    for got, want in zip(kept, recomputed):
        assert got.value_ranges == want.value_ranges
        assert got.cell_ranges == want.cell_ranges
        assert got.arg_ranges == want.arg_ranges
        assert got.ret_ranges == want.ret_ranges
    assert kept_work <= full_work


def test_stable_functions_are_not_reanalysed(monkeypatch):
    """In a multi-function pipeline the leaf functions' summaries settle
    first; later rounds must not redo their fixpoints. (A lone
    self-recursive function saves nothing: its inputs are its own
    previous outputs, which change until the round that converges.)"""
    from repro.workloads import REGISTRY

    design = generate(REGISTRY.get("dedup").fresh_module())
    calls = [dict(design=design, entry="dedup")]
    _results, kept_work = _infer_counting(design, calls, monkeypatch)
    _recompute_every_round(monkeypatch)
    _results, full_work = _infer_counting(design, calls, monkeypatch)
    assert kept_work < 0.75 * full_work


# -- identity with the parent's results, and what keeps the cost down ---------

def test_interval_is_a_value():
    a = Interval(-3, 7)
    assert a == Interval(-3, 7) and a != Interval(-3, 8) and a != (-3, 7)
    assert not (a == None)  # noqa: E711 -- the transfer code compares to None
    assert hash(a) == hash(Interval(-3, 7)) == hash((-3, 7))
    assert len({a, Interval(-3, 7), Interval(0, 0)}) == 2
    assert repr(a) == "[-3, 7]"
    with pytest.raises(ValueError, match=r"empty interval \[1, 0\]"):
        Interval(1, 0)
    assert full_range(I32) is full_range(I32)


def test_lattice_operations_return_an_operand_when_nothing_moves():
    a, inside, apart = Interval(-3, 7), Interval(0, 5), Interval(9, 12)
    assert a.join(inside) is a and inside.join(a) is a
    assert a.meet(inside) is inside and inside.meet(a) is inside
    assert a.join(apart) == Interval(-3, 12) and a.meet(apart) is None
    full = full_range(I32)
    assert a.widen(inside, full) is a
    assert a.widen(Interval(-4, 7), full) == Interval(full.lo, 7)


def test_ranges_equal_the_golden_snapshot():
    """``ranges_golden.json`` was generated at the parent of the commit
    that made ``Interval`` a slotted class and gave blocks a transfer
    plan: every argument, return, value and cell range of the 16
    ``static_flow`` programs, in both entry modes, must still equal it."""
    import json

    from tests.static_corpus import RANGES_GOLDEN, ranges_snapshot

    golden = json.loads(RANGES_GOLDEN.read_text())
    snapshot = ranges_snapshot()
    assert sorted(snapshot) == sorted(golden) and len(golden) == 16
    for program, modes in golden.items():
        for mode, tables in modes.items():
            for table, want in tables.items():
                assert snapshot[program][mode][table] == want, (
                    program, mode, table)


def test_one_static_flow_runs_range_inference_once(monkeypatch):
    """Races + lint + predictor build + predict: lint's is the only
    range inference, and building a ``PerfModel`` runs none."""
    from repro.analysis import PerfModel, analyze_design, lint, lint_design
    from repro.analysis import ranges as ranges_mod

    calls = []

    def counting(*args, **kwargs):
        calls.append(kwargs.get("entry"))
        return real(*args, **kwargs)

    real = ranges_mod.infer_module_ranges
    monkeypatch.setattr(ranges_mod, "infer_module_ranges", counting)
    monkeypatch.setattr(lint, "infer_module_ranges", counting)
    design = generate(compile_source(UNSTABLE, "unstable"))
    analyze_design(design)
    lint_design(design, entry="top")
    assert calls == ["top"]
    model = PerfModel(design=design)
    model.predict(entry="top")
    assert calls == ["top"]
