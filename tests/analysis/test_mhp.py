"""May-happen-in-parallel analysis: spawn contexts and task-level pairs."""

from repro.frontend import compile_source
from repro.passes.mhp import spawn_contexts
from repro.passes import extract_tasks


def graph_of(source, name="m"):
    return extract_tasks(compile_source(source, name))


def pair_sids(graph):
    return {(a.sid, b.sid) for a, b in graph.mhp_pairs()}


SERIAL = """
func serial(a: i32*, n: i32) {
  for (var i: i32 = 0; i < n; i = i + 1) {
    a[i] = a[i] + 1;
  }
}
"""

CILK_FOR = """
func double_all(a: i32*, n: i32) {
  cilk_for (var i: i32 = 0; i < n; i = i + 1) {
    a[i] = a[i] * 2;
  }
}
"""

FIB = """
func fib(n: i32) -> i32 {
  if (n < 2) { return n; }
  var x: i32 = spawn fib(n - 1);
  var y: i32 = spawn fib(n - 2);
  sync;
  return x + y;
}
"""

SYNC_SEPARATED = """
func phased(a: i32*, b: i32*, n: i32) {
  cilk_for (var i: i32 = 0; i < n; i = i + 1) {
    a[i] = a[i] + 1;
  }
  cilk_for (var j: i32 = 0; j < n; j = j + 1) {
    b[j] = b[j] + 1;
  }
}
"""

NESTED = """
func grid(a: i32*, n: i32, m: i32) {
  cilk_for (var i: i32 = 0; i < n; i = i + 1) {
    cilk_for (var j: i32 = 0; j < m; j = j + 1) {
      a[i * m + j] = 0;
    }
  }
}
"""


class TestMhpPairs:
    def test_serial_program_has_no_pairs(self):
        assert graph_of(SERIAL).mhp_pairs() == []

    def test_cilk_for_instances_overlap(self):
        graph = graph_of(CILK_FOR)
        root = graph.root_for_function[graph.module.function("double_all")]
        body = next(iter(root.spawns.values())).target
        # spawned body runs against the spawner AND against other
        # instances of itself (the loop re-reaches the detach)
        assert pair_sids(graph) == {(root.sid, body.sid),
                                    (body.sid, body.sid)}

    def test_recursive_spawns_overlap_themselves(self):
        graph = graph_of(FIB)
        root = graph.root_for_function[graph.module.function("fib")]
        # two sibling direct spawns of fib itself: fib may run in
        # parallel with fib
        assert (root.sid, root.sid) in pair_sids(graph)

    def test_sync_separates_phases(self):
        graph = graph_of(SYNC_SEPARATED)
        phases = [task for task in graph.tasks if task.kind != "function"]
        assert len(phases) == 2
        a, b = sorted(phases, key=lambda t: t.sid)
        # each phase overlaps itself, but the sync orders phase 1 before
        # phase 2: no cross-phase pair
        sids = pair_sids(graph)
        assert (a.sid, a.sid) in sids and (b.sid, b.sid) in sids
        assert (a.sid, b.sid) not in sids

    def test_nested_loops_ancestor_pairs(self):
        graph = graph_of(NESTED)
        sids = pair_sids(graph)
        root = graph.root_for_function[graph.module.function("grid")]
        outer = next(iter(root.spawns.values())).target
        inner = next(iter(outer.spawns.values())).target
        # the inner body overlaps the outer body, other inner instances,
        # and the root's continuation (via the spawn subtree)
        assert (outer.sid, inner.sid) in sids
        assert (inner.sid, inner.sid) in sids
        assert (root.sid, inner.sid) in sids


class TestSpawnContexts:
    def test_cilk_for_context_is_self_parallel(self):
        graph = graph_of(CILK_FOR)
        contexts = spawn_contexts(graph)
        assert len(contexts) == 1
        ctx = contexts[0]
        assert ctx.self_parallel
        assert ctx.siblings == []
        assert len(ctx.region) >= 1

    def test_fib_spawns_are_siblings_not_self(self):
        graph = graph_of(FIB)
        contexts = spawn_contexts(graph)
        assert len(contexts) == 2
        first = next(c for c in contexts if c.siblings)
        assert not first.self_parallel
        assert len(first.siblings) == 1

    def test_serial_program_has_no_contexts(self):
        assert spawn_contexts(graph_of(SERIAL)) == []

    def test_describe_mentions_mhp(self):
        graph = graph_of(CILK_FOR)
        assert "may-happen-in-parallel" in graph.describe()
        assert "may-happen-in-parallel" not in graph_of(SERIAL).describe()
