"""Frontend corner cases: literals, nesting, captures, types."""

import pytest

from repro.accel import build_accelerator
from repro.errors import SemanticError
from repro.frontend import compile_source
from repro.ir.types import I32


def run(source, func, args, modules=None):
    accel = build_accelerator(compile_source(source, "corner"))
    return accel, accel.run(func, args)


class TestLiterals:
    def test_hex_literals(self):
        _, result = run(
            "func f() -> i32 { return 0xFF + 0x10; }", "f", [])
        assert result.retval == 0x10F

    def test_negative_literal_folding(self):
        _, result = run("func f() -> i32 { return -5 * -3; }", "f", [])
        assert result.retval == 15

    def test_i64_arithmetic(self):
        _, result = run("""
        func f(a: i64) -> i64 { return a * 1000000 + 7; }
        """, "f", [5_000_000])
        assert result.retval == 5_000_000_000_007

    def test_i8_wraparound(self):
        _, result = run("func f(a: i8) -> i8 { return a + 1; }", "f", [127])
        assert result.retval == -128


class TestControlFlowCorners:
    def test_deeply_nested_ifs(self):
        src = """
        func f(a: i32) -> i32 {
          if (a > 0) { if (a > 10) { if (a > 100) { return 3; }
          return 2; } return 1; }
          return 0;
        }
        """
        _, r = run(src, "f", [500])
        assert r.retval == 3
        assert run(src, "f", [50])[1].retval == 2
        assert run(src, "f", [5])[1].retval == 1
        assert run(src, "f", [-5])[1].retval == 0

    def test_while_with_compound_condition(self):
        _, result = run("""
        func f(n: i32) -> i32 {
          var i: i32 = 0;
          var acc: i32 = 0;
          while (i < n && acc < 50) { acc = acc + i; i = i + 1; }
          return acc;
        }
        """, "f", [100])
        assert result.retval == 55  # 0+..+10

    def test_for_loop_never_entered(self):
        _, result = run("""
        func f() -> i32 {
          var acc: i32 = 1;
          for (var i: i32 = 5; i < 5; i = i + 1) { acc = acc * 0; }
          return acc;
        }
        """, "f", [])
        assert result.retval == 1

    def test_shadowing_in_inner_scope(self):
        _, result = run("""
        func f() -> i32 {
          var x: i32 = 1;
          {
            var y: i32 = x + 10;
            x = y;
          }
          return x;
        }
        """, "f", [])
        assert result.retval == 11


class TestSpawnCorners:
    def test_nested_spawn_blocks(self):
        source = """
        func f(a: i32*, n: i32) {
          cilk_for (var i: i32 = 0; i < n; i = i + 1) {
            spawn {
              a[i] = a[i] + 1;
            }
            sync;
          }
        }
        """
        accel = build_accelerator(compile_source(source, "nested"))
        base = accel.memory.alloc_array(I32, [0] * 6)
        accel.run("f", [base, 6])
        assert accel.memory.read_array(base, I32, 6) == [1] * 6

    def test_conditional_spawn_fig2(self):
        """The paper's Fig 2: spawn only when the element is 'valid'."""
        source = """
        func work(a: i32*, i: i32) { a[i] = a[i] * 100; }
        func f(a: i32*, n: i32) {
          for (var i: i32 = 0; i < n; i = i + 1) {
            if (a[i] > 0) {
              spawn work(a, i);
            }
          }
          sync;
        }
        """
        accel = build_accelerator(compile_source(source, "fig2"))
        data = [1, -1, 2, 0, 3]
        base = accel.memory.alloc_array(I32, data)
        result = accel.run("f", [base, 5])
        assert accel.memory.read_array(base, I32, 5) == [100, -1, 200, 0, 300]
        # only the valid elements spawned tasks
        work_unit = next(v for k, v in result.stats["units"].items()
                         if k.endswith(":work"))
        assert work_unit["completed"] == 3

    def test_capture_snapshot_semantics(self):
        """The captured value is the value at detach time, even though
        the parent keeps mutating the variable."""
        source = """
        func f(out: i32*, n: i32) {
          var i: i32 = 0;
          while (i < n) {
            spawn { out[i] = i; }
            i = i + 1;
          }
          sync;
        }
        """
        accel = build_accelerator(compile_source(source, "cap"))
        base = accel.memory.alloc_array(I32, [-1] * 5)
        accel.run("f", [base, 5])
        assert accel.memory.read_array(base, I32, 5) == [0, 1, 2, 3, 4]

    def test_spawn_result_read_before_sync_is_legal_but_stale(self):
        """Reading a spawn-result before sync races in Cilk too; here it
        observes the frame's previous contents. After sync it's correct."""
        source = """
        func g() -> i32 { return 7; }
        func f() -> i32 {
          var x: i32 = spawn g();
          sync;
          return x;
        }
        """
        _, result = run(source, "f", [])
        assert result.retval == 7


class TestSemanticCorners:
    def test_global_cannot_shadow_function(self):
        with pytest.raises(SemanticError, match="both a global and a function"):
            compile_source("""
            global f: i32[4];
            func f() { }
            """, "m")

    def test_condition_rejects_float(self):
        with pytest.raises(SemanticError, match="condition"):
            compile_source("func f(x: f32) { if (x) { } }", "m")

    def test_modulo_rejects_float(self):
        with pytest.raises(SemanticError, match="'%'"):
            compile_source("func f(x: f32) -> f32 { return x % 2.0; }", "m")

    def test_pointer_comparison_rejected(self):
        with pytest.raises(SemanticError, match="pointer comparison"):
            compile_source("func f(a: i32*, b: i32*) { if (a == b) { } }", "m")


class TestExpressionDepth:
    """Nesting is bounded: parentheses, unary operators, operator chains
    and statements holding a body each count one level of one budget, so
    no later stage can run out of Python recursion on a deep program."""

    @staticmethod
    def programs(levels):
        """``{name: (what overflows, source)}``, each ``levels`` deep."""
        expressions = {
            "parens": "(" * levels + "a" + ")" * levels,
            "unary": "-" * levels + "a",
            "chain": "a" + " + a" * levels,
        }
        statements = {
            "if": ("if (a) { ", "} "),
            "while": ("while (a) { ", "} "),
            "block": ("{ ", "} "),
            "spawn": ("spawn { ", "} "),
            "for": ("for (var i: i32 = 0; i; i = a) { ", "} "),
            "else-if": ("if (a) { } else ", ""),
        }
        programs = {name: ("expression",
                           f"func f(a: i32) -> i32 {{ return {expr}; }}")
                    for name, expr in expressions.items()}
        for name, (head, tail) in statements.items():
            programs[name] = ("statement", (
                "func f(a: i32) -> i32 { " + head * (levels - 1)
                + head.replace("else ", "") + "var y: i32 = a; "
                + tail * levels + "sync; return a; }"))
        return programs

    def test_program_at_the_bound_compiles_through_generate(self):
        from repro.accel import generate
        from repro.frontend.parser import MAX_NESTING_DEPTH

        for name, (_, source) in self.programs(MAX_NESTING_DEPTH).items():
            design = generate(compile_source(source, name))
            assert design.graph.tasks, name

    def test_one_level_past_it_is_a_parse_error(self):
        from repro.errors import ParseError
        from repro.frontend.parser import MAX_NESTING_DEPTH

        for name, (what, source) in self.programs(
                MAX_NESTING_DEPTH + 1).items():
            with pytest.raises(ParseError, match=rf"^line 1:\d+: {what} "
                               r"nested deeper than \d+ levels"):
                compile_source(source, name)
