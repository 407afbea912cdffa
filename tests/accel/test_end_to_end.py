"""End-to-end accelerator tests: the full toolchain on the paper's
running examples, checking both results and architectural behaviours."""

import pytest

from repro.accel import AcceleratorConfig, TaskUnitParams, build_accelerator
from repro.ir.types import I32

from tests.irprograms import (
    build_fib_module,
    build_matrix_add_module,
    build_scale_module,
    build_serial_sum_module,
)


def fib(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


class TestScaleAccelerator:
    """Fig 12 microbenchmark end to end."""

    def run_scale(self, n=24, config=None):
        acc = build_accelerator(build_scale_module(), config)
        base = acc.memory.alloc_array(I32, range(n))
        result = acc.run("scale", [base, n])
        return acc, base, result, n

    def test_increments_every_element(self):
        acc, base, result, n = self.run_scale()
        assert acc.memory.read_array(base, I32, n) == [i + 1 for i in range(n)]

    def test_zero_iterations(self):
        acc, base, result, _ = self.run_scale(n=0)
        assert result.cycles < 100  # just spawn + loop test + sync

    def test_single_iteration(self):
        acc, base, result, _ = self.run_scale(n=1)
        assert acc.memory.read_array(base, I32, 1) == [1]

    def test_all_children_spawned_and_joined(self):
        acc, base, result, n = self.run_scale()
        body_unit = acc.units[1]
        assert body_unit.stats()["spawns_accepted"] == n
        assert body_unit.stats()["completed"] == n

    def test_more_tiles_is_faster(self):
        _, _, one_tile, _ = self.run_scale(n=32)
        cfg = AcceleratorConfig(default_ntiles=4)
        _, _, four_tiles, _ = self.run_scale(n=32, config=cfg)
        assert four_tiles.cycles < one_tile.cycles

    def test_run_twice_reuses_accelerator(self):
        acc = build_accelerator(build_scale_module())
        base = acc.memory.alloc_array(I32, [0] * 8)
        acc.run("scale", [base, 8])
        acc.run("scale", [base, 8])
        assert acc.memory.read_array(base, I32, 8) == [2] * 8


class TestMatrixAddAccelerator:
    """The Fig 3 nested-loop example: three task units."""

    def setup_method(self):
        self.n = 8
        self.module = build_matrix_add_module(rows_stride=self.n)
        self.acc = build_accelerator(self.module)
        count = self.n * self.n
        self.A = self.acc.memory.alloc_array(I32, range(count))
        self.B = self.acc.memory.alloc_array(I32, range(100, 100 + count))
        self.C = self.acc.memory.alloc_array(I32, [0] * count)

    def test_three_task_units(self):
        assert len(self.acc.units) == 3

    def test_result_correct(self):
        self.acc.run("matrix_add", [self.A, self.B, self.C, self.n])
        got = self.acc.memory.read_array(self.C, I32, self.n * self.n)
        assert got == [100 + 2 * i for i in range(self.n * self.n)]

    def test_n_squared_body_instances(self):
        self.acc.run("matrix_add", [self.A, self.B, self.C, self.n])
        body = self.acc.units[2]
        assert body.stats()["completed"] == self.n * self.n

    def test_inner_unit_spawned_n_times(self):
        self.acc.run("matrix_add", [self.A, self.B, self.C, self.n])
        inner = self.acc.units[1]
        assert inner.stats()["spawns_accepted"] == self.n


class TestRecursiveAccelerator:
    """Fib: recursion through direct self-spawns + frame return slots."""

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 10, 12])
    def test_fib_values(self, n):
        acc = build_accelerator(build_fib_module())
        result = acc.run("fib", [n])
        assert result.retval == fib(n)

    def test_recursive_unit_uses_lifo_policy(self):
        acc = build_accelerator(build_fib_module())
        assert acc.units[0].queue.policy == "lifo"

    def test_frame_region_allocated(self):
        acc = build_accelerator(build_fib_module())
        assert acc.units[0].frame_size == 8  # two i32 slots
        assert acc.units[0].frame_base > 0

    def test_deep_recursion_with_modest_queue_still_completes(self):
        """A queue covering the whole spawn tree (fib(12) = 465 dynamic
        tasks) can never hit the circular wait."""
        cfg = AcceleratorConfig(
            unit_params={"fib": TaskUnitParams(ntiles=2, queue_depth=512)})
        acc = build_accelerator(build_fib_module(), cfg)
        result = acc.run("fib", [12])
        assert result.retval == fib(12)

    def test_undersized_queue_reports_livelock(self):
        """A queue too shallow for the live spawn tree is a circular wait;
        the engine must surface it as a DeadlockError, not hang."""
        from repro.errors import DeadlockError

        cfg = AcceleratorConfig(
            unit_params={"fib": TaskUnitParams(ntiles=2, queue_depth=4)})
        acc = build_accelerator(build_fib_module(), cfg)
        with pytest.raises(DeadlockError, match="queue"):
            acc.run("fib", [12])


class TestSerialAccelerator:
    def test_serial_function_single_unit(self):
        acc = build_accelerator(build_serial_sum_module())
        assert len(acc.units) == 1
        base = acc.memory.alloc_array(I32, range(30))
        result = acc.run("sum", [base, 30])
        assert result.retval == sum(range(30))

    def test_loop_carried_register_state(self):
        """The accumulator lives in the register file, not memory."""
        acc = build_accelerator(build_serial_sum_module())
        base = acc.memory.alloc_array(I32, [5] * 10)
        result = acc.run("sum", [base, 10])
        assert result.retval == 50
        # only the array loads touch the cache: 10 loads, no acc traffic
        assert acc.cache.stats()["loads"] == 10
        assert acc.cache.stats()["stores"] == 0


class TestSpawnLatency:
    """§V-A: tasks can be spawned in ~10 cycles."""

    def test_single_spawn_end_to_end_latency(self):
        acc = build_accelerator(build_scale_module())
        base = acc.memory.alloc_array(I32, [0])
        acc.run("scale", [base, 1])
        root, body = acc.units
        spawn_to_dispatch = (body.first_dispatch_cycle
                             - root.first_dispatch_cycle)
        # root must execute its loop header first (~a few cycles); the
        # spawn handshake itself lands within the paper's ~10-cycle claim
        assert spawn_to_dispatch < 40

    def test_sustained_spawn_rate(self):
        """Fine-grain tasks issue every few cycles, not every ~100 like
        a software runtime (Fig 13's 'Software' line)."""
        n = 64
        cfg = AcceleratorConfig(default_ntiles=4)
        acc = build_accelerator(build_scale_module(), cfg)
        base = acc.memory.alloc_array(I32, [0] * n)
        result = acc.run("scale", [base, n])
        cycles_per_spawn = result.cycles / n
        assert cycles_per_spawn < 15


class TestStatsPlumbing:
    def test_run_result_contains_stats(self, monkeypatch):
        """Every component's ``stats()`` runs at most once per
        ``Workload.run``: reading the channel totals rebuilds none."""
        from collections import Counter

        from repro.workloads import REGISTRY, Workload

        calls = Counter()
        build = Workload.build

        def counting_build(workload, *args, **kwargs):
            acc = build(workload, *args, **kwargs)
            for comp in acc.sim.components:
                def stats(real=comp.stats, name=comp.name):
                    calls[name] += 1
                    return real()
                monkeypatch.setattr(comp, "stats", stats, raising=False)
            return acc

        monkeypatch.setattr(Workload, "build", counting_build)
        result = REGISTRY.get("fibonacci").run()
        assert result.correct
        assert {"cache", "units", "channels"} <= set(result.stats)
        assert {"T0:fib", "L1", "DRAM"} <= set(calls)
        assert max(calls.values()) == 1, calls
        acc = build_accelerator(build_scale_module())
        base = acc.memory.alloc_array(I32, [0] * 4)
        result = acc.run("scale", [base, 4])
        assert result.time_seconds(mhz=150.0) == pytest.approx(
            result.cycles / 150e6)
