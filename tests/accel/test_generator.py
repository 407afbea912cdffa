"""Unit tests for the Stage-1/2 generator (compile_task, GeneratedDesign)."""

import pytest

from repro.accel import AcceleratorConfig, TaskUnitParams, generate
from repro.accel.config import ARRIA_10, BOARDS, CYCLONE_V
from repro.errors import ConfigError
from repro.workloads import REGISTRY

from tests.irprograms import (
    build_fib_module,
    build_matrix_add_module,
    build_scale_module,
)


class TestGenerate:
    def test_design_has_one_compiled_task_per_graph_task(self):
        design = generate(build_matrix_add_module())
        assert [task.sid for task in design.graph.tasks] == [0, 1, 2]
        assert all(task.dfgs for task in design.graph.tasks)

    def test_spawn_edges_carry_child_argument_order(self):
        design = generate(build_scale_module())
        root, child = design.graph.tasks
        (edge,) = root.spawns.values()
        assert not edge.is_call and edge.callee is None   # a region spawn
        assert edge.target is child
        assert edge.args == child.args

    def test_direct_spawn_edges_for_recursion(self):
        design = generate(build_fib_module())
        root = design.graph.tasks[0]
        assert len(root.spawns) == 2
        for edge in root.spawns.values():
            assert not edge.is_call
            assert edge.target is root      # self-spawn
            assert edge.ret_ptr is not None

    def test_frame_layout_distinct_aligned_offsets(self):
        design = generate(build_fib_module())
        root = design.graph.tasks[0]
        offsets = sorted(root.frame_offsets.values())
        assert offsets == [0, 4]
        assert root.frame_size == 8  # rounded to 8 bytes

    def test_no_frames_for_loop_tasks(self):
        design = generate(build_scale_module())
        assert all(task.frame_size == 0 for task in design.graph.tasks)

    def test_dfgs_cover_every_owned_block(self):
        design = generate(build_matrix_add_module())
        for task in design.graph.tasks:
            assert set(task.dfgs) == set(task.blocks)
            assert task.entry in task.dfgs

    def test_call_edges(self):
        design = generate(REGISTRY.get("mergesort").fresh_module())
        ms, merge = (next(t for t in design.graph.tasks if t.name == name)
                     for name in ("mergesort", "merge"))
        (edge,) = [e for e in ms.spawns.values() if e.is_call]
        assert edge.target is merge
        assert len(edge.args) == 4


class TestConfig:
    def test_params_for_falls_back_to_default(self):
        config = AcceleratorConfig(default_ntiles=3)
        assert config.params_for("anything").ntiles == 3

    def test_unit_override(self):
        config = AcceleratorConfig(
            default_ntiles=1,
            unit_params={"x": TaskUnitParams(ntiles=7, queue_depth=9)})
        assert config.params_for("x").ntiles == 7
        assert config.params_for("x").queue_depth == 9

    def test_sweep_tiles_reach_every_unit(self):
        """The Fig 15 sweep knob: a point's tile count is every unit's
        default, and an explicit unit override still wins."""
        from repro.exp import config_from_spec
        from repro.workloads import REGISTRY

        config = config_from_spec(REGISTRY.get("matrix_add"), {
            "tiles": 8, "overrides": {"unit_params": {"x": {"ntiles": 2}}}})
        assert config.default_ntiles == 8
        assert config.params_for("anything").ntiles == 8
        assert config.params_for("x").ntiles == 2

    def test_invalid_params_rejected(self):
        with pytest.raises(ConfigError):
            TaskUnitParams(ntiles=0)
        with pytest.raises(ConfigError):
            TaskUnitParams(queue_depth=0)
        with pytest.raises(ConfigError):
            TaskUnitParams(max_inflight_per_tile=0)
        with pytest.raises(ConfigError, match="databox_entries"):
            TaskUnitParams(databox_entries=0)
        with pytest.raises(ConfigError, match="policy"):
            TaskUnitParams(policy="bogus")
        for size in (0, -5):
            with pytest.raises(ConfigError, match="memory_bytes"):
                AcceleratorConfig(memory_bytes=size)
        with pytest.raises(ConfigError, match="default_ntiles"):
            AcceleratorConfig(default_ntiles=0)
        for latency in (0, -5):
            with pytest.raises(ConfigError, match="scratchpad_latency"):
                AcceleratorConfig(memory_model="scratchpad",
                                  scratchpad_latency=latency)
        with pytest.raises(ConfigError, match="dram_latency_cycles"):
            AcceleratorConfig(dram_latency_cycles=-50)
        assert AcceleratorConfig(
            dram_latency_cycles=0).effective_dram_latency() == 0

    def test_boards_registry(self):
        assert BOARDS["Cyclone V"] is CYCLONE_V
        assert BOARDS["Arria 10"] is ARRIA_10
        assert ARRIA_10.alm_capacity > 5 * CYCLONE_V.alm_capacity

    def test_dram_latency_from_board(self):
        config = AcceleratorConfig(board=CYCLONE_V)
        # 270 ns at 185 MHz ~ 50 cycles
        assert 40 <= config.effective_dram_latency() <= 60
        fixed = AcceleratorConfig(dram_latency_cycles=33)
        assert fixed.effective_dram_latency() == 33


class TestOptimizeFlag:
    def test_optimize_shrinks_or_preserves_instruction_count(self):
        module_raw = REGISTRY.get("stencil").fresh_module()
        raw = sum(t.instruction_count()
                  for t in generate(module_raw, optimize=False).graph.tasks)
        module_opt = REGISTRY.get("stencil").fresh_module()
        opt = sum(t.instruction_count()
                  for t in generate(module_opt, optimize=True).graph.tasks)
        assert opt <= raw
