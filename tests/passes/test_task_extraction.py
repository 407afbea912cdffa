"""Tests for the Fig 9 task-extraction pass and the task graph."""


from repro.ir.values import Argument
from repro.passes import DETACHED, FUNCTION_ROOT, analyze_concurrency, extract_tasks

from tests.irprograms import (
    build_fib_module,
    build_matrix_add_module,
    build_scale_module,
    build_serial_sum_module,
)


class TestScaleExtraction:
    """Fig 12: one parallel loop -> root (loop control) + body task."""

    def setup_method(self):
        self.graph = extract_tasks(build_scale_module())

    def test_two_tasks(self):
        assert len(self.graph.tasks) == 2
        kinds = [t.kind for t in self.graph.tasks]
        assert kinds == [FUNCTION_ROOT, DETACHED]

    def test_root_owns_loop_control(self):
        root = self.graph.tasks[0]
        names = {b.name for b in root.blocks}
        assert "cond" in names and "latch" in names
        assert "detached" not in names

    def test_child_owns_body(self):
        child = self.graph.tasks[1]
        assert {b.name for b in child.blocks} == {"detached"}
        assert child.parent is self.graph.tasks[0]

    def test_child_args_are_live_ins(self):
        child = self.graph.tasks[1]
        # body uses the loop index (an instruction) and pointer a (argument)
        names = set()
        for arg in child.args:
            names.add(arg.name if isinstance(arg, Argument) else arg.name)
        assert "a" in names
        assert any("i" in n for n in names)

    def test_block_sets_disjoint(self):
        root, child = self.graph.tasks
        assert not (set(root.blocks) & set(child.blocks))


class TestNestedExtraction:
    """Fig 3: nested cilk_for -> T0 outer, T1 inner, T2 body."""

    def setup_method(self):
        self.graph = extract_tasks(build_matrix_add_module())

    def test_three_tasks(self):
        assert len(self.graph.tasks) == 3

    def test_nesting_chain(self):
        t0, t1, t2 = self.graph.tasks
        assert t1.parent is t0
        assert t2.parent is t1
        assert t1 in t0.children
        assert t2 in t1.children

    def test_spawn_edges(self):
        t0, t1, t2 = self.graph.tasks
        assert [e.target for e in t0.spawns.values()] == [t1]
        assert [e.target for e in t1.spawns.values()] == [t2]
        # both are region spawns: detaches of nested child tasks
        for task in (t0, t1):
            (edge,) = task.spawns.values()
            assert not edge.is_call and edge.callee is None
        assert self.graph.spawn_closure(t1) == [t1, t2]

    def test_body_task_args_include_both_indices(self):
        t2 = self.graph.tasks[2]
        # body needs A, B, C, i, j  (N is only used by loop controls)
        assert len(t2.args) == 5

    def test_inner_task_args_flow_through(self):
        """T1 must carry everything T2 needs that comes from T0's scope."""
        t1 = self.graph.tasks[1]
        # inner control needs N and j bookkeeping; must also carry A,B,C,i for T2
        arg_names = {getattr(a, "name", "") for a in t1.args}
        assert {"A", "B", "C", "N"} <= arg_names

    def test_per_task_instruction_counts_sum_to_function(self):
        f = self.graph.module.function("matrix_add")
        total = sum(len(b.instructions) for b in f.blocks)
        assert sum(t.instruction_count() for t in self.graph.tasks) == total


class TestRecursiveExtraction:
    """Fib: spawn sites collapse to direct spawns of the function itself."""

    def setup_method(self):
        self.graph = extract_tasks(build_fib_module())

    def test_single_task(self):
        # both detached regions are call+store+reattach -> direct spawns,
        # so the only static task is fib's root.
        assert len(self.graph.tasks) == 1

    def test_direct_spawns_recorded(self):
        root = self.graph.tasks[0]
        assert len(root.spawns) == 2
        for spawn in root.spawns.values():
            assert not spawn.is_call
            assert spawn.callee.name == "fib"
            assert spawn.ret_ptr is not None
            assert len(spawn.args) == 1

    def test_recursion_detected(self):
        root = self.graph.tasks[0]
        assert self.graph.is_recursive_function(root.function)

    def test_memory_ops_counted(self):
        root = self.graph.tasks[0]
        # frame loads (x, y) count as memory; scalar allocas would not
        assert root.memory_op_count() >= 2


class TestSerialExtraction:
    def test_single_task_no_spawns(self):
        graph = extract_tasks(build_serial_sum_module())
        assert len(graph.tasks) == 1
        root = graph.tasks[0]
        assert not root.spawns
        assert root.kind == FUNCTION_ROOT

    def test_register_accesses_not_counted_as_memory(self):
        graph = extract_tasks(build_serial_sum_module())
        root = graph.tasks[0]
        # only the a[i] load touches real memory per iteration
        assert root.memory_op_count() == 1


class TestSpawnEdges:
    SOURCE = """
    func g(a: i32) -> i32 { return a + 1; }
    func f(a: i32) -> i32 { return a * 2; }
    func top(n: i32) -> i32 {
      var x: i32 = g(n);
      var y: i32 = spawn f(x);
      sync;
      return y;
    }
    """

    def test_call_in_a_block_ending_in_a_direct_spawn_is_an_edge(self):
        """The call to g shares its block with the detach of f: both sites
        get an edge, spawns before calls, and the accelerator runs it."""
        from repro.accel import AcceleratorConfig, build_accelerator
        from repro.frontend import compile_source

        graph = extract_tasks(compile_source(self.SOURCE, "m"))
        g, f, top = graph.tasks
        spawn, call = top.spawns.values()
        assert spawn.target is f and not spawn.is_call
        assert spawn.ret_ptr is not None
        assert call.target is g and call.is_call
        for engine in ("dense", "compiled"):
            accel = build_accelerator(compile_source(self.SOURCE, "m"),
                                      AcceleratorConfig(engine=engine))
            assert accel.run("top", [3]).retval == 8


class TestConcurrencyOpt:
    def test_loop_spawned_child_gets_deep_queue(self):
        graph = extract_tasks(build_scale_module())
        sizing = analyze_concurrency(graph)
        root, child = graph.tasks
        assert sizing[child].spawned_in_loop
        assert sizing[child].recommended_queue_depth > sizing[root].recommended_queue_depth

    def test_recursive_task_gets_deepest_queue(self):
        graph = extract_tasks(build_fib_module())
        sizing = analyze_concurrency(graph)
        root = graph.tasks[0]
        assert sizing[root].recursive
        assert sizing[root].recommended_queue_depth >= 64

    def test_serial_task_gets_default(self):
        graph = extract_tasks(build_serial_sum_module())
        sizing = analyze_concurrency(graph)
        assert sizing[graph.tasks[0]].recommended_queue_depth == 4

    def test_nested_loops_both_children_deep(self):
        graph = extract_tasks(build_matrix_add_module())
        sizing = analyze_concurrency(graph)
        t0, t1, t2 = graph.tasks
        assert sizing[t1].spawned_in_loop
        assert sizing[t2].spawned_in_loop
