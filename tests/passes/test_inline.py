"""Tests for the function inliner."""


from repro.accel import build_accelerator, generate
from repro.frontend import compile_source
from repro.ir import verify_module
from repro.ir.instructions import Call
from repro.ir.types import I32
from repro.passes import inline_calls, prune_unreachable_functions


def call_count(module, func_name):
    return sum(1 for i in module.function(func_name).instructions()
               if isinstance(i, Call))


class TestBasicInlining:
    def test_simple_value_function(self):
        module = compile_source("""
        func inc(x: i32) -> i32 { return x + 1; }
        func f(a: i32) -> i32 { return inc(a) * 2; }
        """, "m")
        assert inline_calls(module) == 1
        verify_module(module)
        assert call_count(module, "f") == 0
        accel = build_accelerator(module)
        assert accel.run("f", [20]).retval == 42

    def test_void_function(self):
        module = compile_source("""
        func put(a: i32*, i: i32, v: i32) { a[i] = v; }
        func f(a: i32*) { put(a, 0, 5); put(a, 1, 6); }
        """, "m")
        assert inline_calls(module) == 2
        verify_module(module)
        accel = build_accelerator(module)
        base = accel.memory.alloc_array(I32, [0, 0])
        accel.run("f", [base])
        assert accel.memory.read_array(base, I32, 2) == [5, 6]

    def test_multi_block_callee_with_two_returns(self):
        module = compile_source("""
        func clamp(x: i32) -> i32 {
          if (x > 100) { return 100; }
          return x;
        }
        func f(a: i32) -> i32 { return clamp(a) + clamp(a * 3); }
        """, "m")
        assert inline_calls(module) == 2
        verify_module(module)
        accel = build_accelerator(module)
        assert accel.run("f", [40]).retval == 40 + 100
        accel2 = build_accelerator(module)
        assert accel2.run("f", [7]).retval == 7 + 21

    def test_callee_with_loop(self):
        module = compile_source("""
        func total(a: i32*, n: i32) -> i32 {
          var acc: i32 = 0;
          for (var i: i32 = 0; i < n; i = i + 1) { acc = acc + a[i]; }
          return acc;
        }
        func f(a: i32*, n: i32) -> i32 { return total(a, n) + 1; }
        """, "m")
        assert inline_calls(module) == 1
        verify_module(module)
        accel = build_accelerator(module)
        base = accel.memory.alloc_array(I32, [3, 4, 5])
        assert accel.run("f", [base, 3]).retval == 13

    def test_nested_inlining_runs_to_fixpoint(self):
        module = compile_source("""
        func a(x: i32) -> i32 { return x + 1; }
        func b(x: i32) -> i32 { return a(x) + 2; }
        func f(x: i32) -> i32 { return b(x) + 4; }
        """, "m")
        assert inline_calls(module) >= 2
        verify_module(module)
        assert call_count(module, "f") == 0
        accel = build_accelerator(module)
        assert accel.run("f", [0]).retval == 7


class TestEligibility:
    def test_parallel_callee_not_inlined(self):
        module = compile_source("""
        func pmap(a: i32*, n: i32) {
          cilk_for (var i: i32 = 0; i < n; i = i + 1) { a[i] = i; }
        }
        func f(a: i32*, n: i32) { pmap(a, n); }
        """, "m")
        assert inline_calls(module) == 0

    def test_recursive_callee_not_inlined(self):
        module = compile_source("""
        func down(x: i32) -> i32 {
          if (x <= 0) { return 0; }
          return down(x - 1);
        }
        func f(x: i32) -> i32 { return down(x); }
        """, "m")
        assert inline_calls(module) == 0

    def test_size_budget_respected(self):
        src_big = "func big(x: i32) -> i32 { return x" + " + 1" * 80 + "; }"
        module = compile_source(src_big + """
        func f(x: i32) -> i32 { return big(x); }
        """, "m")
        assert inline_calls(module, max_insts=40) == 0
        assert inline_calls(module, max_insts=400) == 1


class TestEndToEndEffect:
    def test_mergesort_merge_inlines_and_still_sorts(self):
        """Inlining merge removes a task unit and its call round trips —
        the §VI 'eliminate task controllers' effect."""
        from repro.workloads import Mergesort

        workload = Mergesort()
        module = workload.fresh_module()
        baseline_units = len(generate(module, optimize=False).graph.tasks)

        module2 = workload.fresh_module()
        assert inline_calls(module2, max_insts=200) == 1
        assert prune_unreachable_functions(module2, ["mergesort"]) == 1
        verify_module(module2)
        inlined_units = len(generate(module2, optimize=False).graph.tasks)
        assert inlined_units == baseline_units - 1

        accel = build_accelerator(module2)
        data = [9, 2, 7, 2, 5, 1, 8, 0]
        base = accel.memory.alloc_array(I32, data)
        accel.run("mergesort", [base, 0, len(data) - 1])
        assert accel.memory.read_array(base, I32, len(data)) == sorted(data)
