"""Lowering tests: source -> IR structure, and source -> accelerator -> result."""

import pytest

from repro.accel import build_accelerator
from repro.errors import SemanticError
from repro.frontend import compile_source
from repro.ir.instructions import Alloca, Detach
from repro.ir.types import I32
from repro.passes import extract_tasks


class TestIRStructure:
    def test_cilk_for_lowers_to_detach_plus_sync(self):
        m = compile_source("""
        func f(a: i32*, n: i32) {
          cilk_for (var i: i32 = 0; i < n; i = i + 1) { a[i] = i; }
        }
        """)
        f = m.function("f")
        opcodes = [i.opcode for i in f.instructions()]
        assert "detach" in opcodes
        assert "reattach" in opcodes
        assert opcodes.count("sync") >= 1

    def test_serial_for_has_no_parallel_markers(self):
        m = compile_source("""
        func f(a: i32*, n: i32) {
          for (var i: i32 = 0; i < n; i = i + 1) { a[i] = i; }
        }
        """)
        assert not m.function("f").has_parallelism()

    def test_spawn_result_uses_frame_slot(self):
        m = compile_source("""
        func g() -> i32 { return 7; }
        func f() -> i32 {
          var x: i32 = spawn g();
          sync;
          return x;
        }
        """)
        allocas = [i for i in m.function("f").instructions()
                   if isinstance(i, Alloca)]
        assert any(a.in_frame for a in allocas)

    def test_plain_locals_are_register_slots(self):
        m = compile_source("func f() -> i32 { var x: i32 = 3; return x; }")
        allocas = [i for i in m.function("f").instructions()
                   if isinstance(i, Alloca)]
        assert allocas and not any(a.in_frame for a in allocas)

    def test_direct_spawn_extraction(self):
        """spawn f(...) collapses to a direct spawn of f's unit."""
        m = compile_source("""
        func work(a: i32*, i: i32) { a[i] = i; }
        func f(a: i32*, n: i32) {
          for (var i: i32 = 0; i < n; i = i + 1) {
            spawn work(a, i);
          }
          sync;
        }
        """)
        graph = extract_tasks(m)
        root = graph.root_for_function[m.function("f")]
        (edge,) = root.spawns.values()
        # a direct spawn: not a serial call, and not a region spawn
        assert not edge.is_call
        assert edge.callee is m.function("work")

    def test_captured_variable_loaded_before_detach(self):
        m = compile_source("""
        func f(a: i32*, n: i32) {
          var i: i32 = 0;
          while (i < n) {
            spawn { a[i] = 1; }
            i = i + 1;
          }
          sync;
        }
        """)
        f = m.function("f")
        # find the block ending in detach; the capture load must precede it
        for block in f.blocks:
            if isinstance(block.terminator, Detach):
                body_ops = [i.opcode for i in block.body()]
                assert "load" in body_ops
                break
        else:
            pytest.fail("no detach found")

    def test_implicit_sync_before_return_when_spawning(self):
        m = compile_source("""
        func g() { }
        func f() { spawn g(); }
        """)
        f = m.function("f")
        opcodes = [i.opcode for i in f.instructions()]
        assert "sync" in opcodes


class TestExecutionSemantics:
    def run_source(self, source, func, args, arrays=None):
        m = compile_source(source)
        acc = build_accelerator(m)
        bases = {}
        resolved = []
        for a in args:
            if isinstance(a, list):
                base = acc.memory.alloc_array(I32, a)
                bases[id(a)] = base
                resolved.append(base)
            else:
                resolved.append(a)
        result = acc.run(func, resolved)
        return acc, bases, result

    def test_conditional_inside_parallel_loop(self):
        """The Fig 2 pattern: spawn work only for valid elements."""
        src = """
        func f(a: i32*, n: i32) {
          cilk_for (var i: i32 = 0; i < n; i = i + 1) {
            if (a[i] > 0) { a[i] = a[i] * 10; }
          }
        }
        """
        data = [1, -2, 3, -4, 5, 0, 7, -8]
        acc, bases, _ = self.run_source(src, "f", [data, 8])
        got = acc.memory.read_array(bases[id(data)], I32, 8)
        assert got == [10, -2, 30, -4, 50, 0, 70, -8]

    def test_dynamic_exit_loop(self):
        """Saxpy-style dynamic trip count decided at run time."""
        src = """
        func f(a: i32*) -> i32 {
          var i: i32 = 0;
          while (a[i] != -1) { i = i + 1; }
          return i;
        }
        """
        data = [5, 6, 7, -1, 9]
        _, _, result = self.run_source(src, "f", [data])
        assert result.retval == 3

    def test_integer_division_and_modulo(self):
        src = "func f(a: i32, b: i32) -> i32 { return a / b * 100 + a % b; }"
        _, _, result = self.run_source(src, "f", [17, 5])
        assert result.retval == 302

    def test_float_arithmetic(self):
        src = """
        func f(a: f32*, n: i32) {
          cilk_for (var i: i32 = 0; i < n; i = i + 1) {
            a[i] = a[i] * 2.0 + 1.0;
          }
        }
        """
        m = compile_source(src)
        acc = build_accelerator(m)
        from repro.ir.types import F32
        base = acc.memory.alloc_array(F32, [0.5, 1.5, 2.5, 3.5])
        acc.run("f", [base, 4])
        assert acc.memory.read_array(base, F32, 4) == [2.0, 4.0, 6.0, 8.0]

    def test_logical_operators(self):
        src = """
        func f(a: i32, b: i32) -> i32 {
          if (a > 0 && b > 0) { return 1; }
          if (a > 0 || b > 0) { return 2; }
          if (!(a == b)) { return 3; }
          return 4;
        }
        """
        assert self.run_source(src, "f", [1, 1])[2].retval == 1
        assert self.run_source(src, "f", [1, -1])[2].retval == 2
        assert self.run_source(src, "f", [-1, -2])[2].retval == 3
        assert self.run_source(src, "f", [-5, -5])[2].retval == 4

    def test_global_array_shared_between_functions(self):
        src = """
        global buf: i32[8];
        func producer(n: i32) {
          for (var i: i32 = 0; i < n; i = i + 1) { buf[i] = i * i; }
        }
        func f(n: i32) -> i32 {
          producer(n);
          var total: i32 = 0;
          for (var i: i32 = 0; i < n; i = i + 1) { total = total + buf[i]; }
          return total;
        }
        """
        _, _, result = self.run_source(src, "f", [5])
        assert result.retval == 0 + 1 + 4 + 9 + 16

    def test_recursion_via_spawn_results(self):
        src = """
        func fib(n: i32) -> i32 {
          if (n < 2) { return n; }
          var x: i32 = spawn fib(n - 1);
          var y: i32 = spawn fib(n - 2);
          sync;
          return x + y;
        }
        """
        _, _, result = self.run_source(src, "fib", [10])
        assert result.retval == 55

    def test_negative_numbers(self):
        src = "func f(a: i32) -> i32 { return -a * 3; }"
        _, _, result = self.run_source(src, "f", [7])
        assert result.retval == -21

    def test_unreachable_code_rejected(self):
        with pytest.raises(SemanticError, match="unreachable"):
            compile_source("func f() -> i32 { return 1; var x: i32 = 2; }")

    def test_missing_return_rejected(self):
        with pytest.raises(SemanticError, match="fall off the end"):
            compile_source("func f(a: i32) -> i32 { if (a > 0) { return 1; } }")

    def test_both_branches_return(self):
        src = """
        func f(a: i32) -> i32 {
          if (a > 0) { return 1; } else { return 2; }
        }
        """
        assert self.run_source(src, "f", [5])[2].retval == 1
        assert self.run_source(src, "f", [-5])[2].retval == 2
