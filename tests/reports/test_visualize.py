"""Tests for DOT emission and execution timelines."""


from repro.accel import build_accelerator
from repro.passes import extract_tasks
from repro.reports import (
    execution_timeline,
    task_graph_dot,
    utilization_summary,
)
from repro.sim import Trace
from repro.workloads import REGISTRY

from tests.irprograms import build_fib_module, build_matrix_add_module


class TestDot:
    def test_nodes_and_spawn_edges(self):
        graph = extract_tasks(build_matrix_add_module())
        dot = task_graph_dot(graph)
        assert dot.startswith('digraph "matrix_add"')
        assert dot.count("[label=") >= 5  # 3 nodes + 2 edges
        assert 't0 -> t1 [label="spawn"]' in dot
        assert 't1 -> t2 [label="spawn"]' in dot
        assert dot.rstrip().endswith("}")

    def test_recursive_self_edge_dashed(self):
        graph = extract_tasks(build_fib_module())
        dot = task_graph_dot(graph)
        assert 't0 -> t0 [label="spawn" style=dashed]' in dot

    def test_serial_call_edges(self):
        graph = extract_tasks(REGISTRY.get("mergesort").fresh_module())
        dot = task_graph_dot(graph)
        assert 'label="call"' in dot


class TestTimeline:
    def run_traced(self):
        workload = REGISTRY.get("dedup")
        trace = Trace(enabled=True)
        accel = build_accelerator(workload.fresh_module(),
                                  workload.default_config(), trace=trace)
        prepared = workload.prepare(accel.memory, 1)
        result = accel.run(prepared.function, prepared.args)
        return trace, result

    def test_timeline_has_row_per_active_unit(self):
        trace, result = self.run_traced()
        text = execution_timeline(trace, result.cycles)
        assert "T1:process_chunk" in text
        assert "T0:compress_chunk" in text
        assert "s" in text and "c" in text

    def test_empty_run(self):
        assert execution_timeline(Trace(enabled=True), 0) == "(empty run)"

    def test_utilization_summary(self):
        _, result = self.run_traced()
        text = utilization_summary(result.stats, result.cycles)
        assert "T1:process_chunk" in text
        assert "%" in text
