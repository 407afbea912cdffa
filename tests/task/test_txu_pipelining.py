"""Tests for TXU behaviours: Fig 7 task pipelining, suspension at sync,
structural hazards, and spawn-network backpressure."""


from repro.accel import AcceleratorConfig, TaskUnitParams, build_accelerator
from repro.ir.types import I32

from tests.irprograms import build_fib_module, build_scale_module


def build_scale_accel(tiles=1, inflight=8, work_ops=10, queue=64):
    module = build_scale_module(work_ops=work_ops)
    config = AcceleratorConfig(unit_params={
        "scale": TaskUnitParams(ntiles=1),
        "scale.t0": TaskUnitParams(ntiles=tiles, queue_depth=queue,
                                   max_inflight_per_tile=inflight),
    })
    return build_accelerator(module, config)


class TestTaskPipelining:
    """Fig 7: multiple dynamic instances outstanding on one TXU."""

    def test_deeper_inflight_window_raises_throughput(self):
        n = 48
        cycles = {}
        for inflight in (1, 4):
            accel = build_scale_accel(inflight=inflight, work_ops=20)
            base = accel.memory.alloc_array(I32, [0] * n)
            cycles[inflight] = accel.run("scale", [base, n]).cycles
        assert cycles[4] < cycles[1] * 0.75

    def test_multiple_instances_simultaneously_in_flight(self):
        """During the run the body tile must actually hold >1 instance."""
        accel = build_scale_accel(inflight=8, work_ops=50)
        base = accel.memory.alloc_array(I32, [0] * 32)
        body_unit = accel.units[1]
        peak = 0
        root = accel.units[0]
        accel.network.host_spawn.push(
            __import__("repro.task.messages", fromlist=["SpawnMessage"])
            .SpawnMessage(dest_sid=0, args=(base, 32),
                          parent_sid=None, parent_dyid=None))
        while not root.root_done:
            accel.sim.tick()
            peak = max(peak, len(body_unit.tiles[0].instances))
            assert accel.sim.cycle < 100000
        assert peak > 1
        assert accel.memory.read_array(base, I32, 32) == [50] * 32

    def test_results_correct_regardless_of_window(self):
        for inflight in (1, 2, 8):
            accel = build_scale_accel(inflight=inflight)
            base = accel.memory.alloc_array(I32, list(range(20)))
            accel.run("scale", [base, 20])
            assert accel.memory.read_array(base, I32, 20) == [
                i + 10 for i in range(20)]


class TestSuspension:
    """Instances at a sync with outstanding children vacate the tile
    (queue state SYNC) and resume when the last child joins."""

    def test_fib_parent_suspends_and_resumes(self):
        accel = build_accelerator(build_fib_module())
        unit = accel.units[0]
        from repro.task.messages import SpawnMessage

        accel.network.host_spawn.push(SpawnMessage(
            dest_sid=0, args=(8,), parent_sid=None, parent_dyid=None))
        seen_sync = False
        while not unit.root_done:
            accel.sim.tick()
            # slots are None until their first allocation
            if any(e is not None and e.state == "SYNC"
                   for e in unit.queue.entries):
                seen_sync = True
            assert accel.sim.cycle < 200000
        assert seen_sync, "no instance ever suspended at sync"
        assert unit.root_retval == 21  # fib(8)

    def test_suspended_instance_frees_tile_capacity(self):
        """With one tile and a 1-deep in-flight window, fib can only
        complete if suspended parents release the tile slot."""
        from repro.workloads import fib_reference

        config = AcceleratorConfig(unit_params={
            "fib": TaskUnitParams(ntiles=1, max_inflight_per_tile=1,
                                  queue_depth=512)})
        accel = build_accelerator(build_fib_module(), config)
        result = accel.run("fib", [10])
        assert result.retval == fib_reference(10)


class TestBackpressure:
    def test_tiny_child_queue_throttles_but_completes(self):
        module = build_scale_module()
        config = AcceleratorConfig(unit_params={
            "scale": TaskUnitParams(ntiles=1),
            "scale.t0": TaskUnitParams(ntiles=1, queue_depth=1),
        })
        accel = build_accelerator(module, config)
        base = accel.memory.alloc_array(I32, [0] * 24)
        result = accel.run("scale", [base, 24])
        assert accel.memory.read_array(base, I32, 24) == [1] * 24
        # and it costs time: compare with a roomy queue
        roomy = build_scale_accel(queue=64)
        base2 = roomy.memory.alloc_array(I32, [0] * 24)
        faster = roomy.run("scale", [base2, 24])
        assert result.cycles > faster.cycles

    def test_stats_report_expected_task_counts(self):
        accel = build_scale_accel(tiles=2)
        base = accel.memory.alloc_array(I32, [0] * 30)
        result = accel.run("scale", [base, 30])
        body = result.stats["units"]["T1:scale.t0"]
        assert body["spawns_accepted"] == 30
        assert body["completed"] == 30
        # work was actually spread over both tiles
        busy = [t["busy_cycles"] for t in body["tiles"]]
        assert all(b > 0 for b in busy)
