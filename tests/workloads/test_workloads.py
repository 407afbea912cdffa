"""Integration tests: every paper benchmark runs correctly end to end."""

import pytest

from repro.workloads import (
    REGISTRY,
    Dedup,
    Fibonacci,
    Mergesort,
    ScaleMicro,
    fib_reference,
)

ALL_NAMES = ["matrix_add", "image_scale", "saxpy", "stencil", "dedup",
             "mergesort", "fibonacci"]


class TestRegistry:
    def test_all_seven_registered_in_table2_order(self):
        assert REGISTRY.names() == ALL_NAMES

    def test_every_prepare_rejects_a_scale_below_one(self):
        from repro.errors import ConfigError
        from repro.memory.backing import MainMemory

        for workload in REGISTRY.all():
            for scale in (0, -1):
                with pytest.raises(ConfigError, match="scale must be at "
                                   f"least 1, got {scale}"):
                    workload.prepare(MainMemory(), scale)

    def test_lookup_unknown_raises(self):
        from repro.errors import TapasError

        with pytest.raises(TapasError, match="unknown workload"):
            REGISTRY.get("nope")

    def test_table2_metadata_present(self):
        for w in REGISTRY.all():
            assert w.challenge
            assert w.memory_pattern in ("Regular", "Irregular")
            assert w.paper_tiles >= 1


@pytest.mark.parametrize("name", ALL_NAMES)
class TestCorrectness:
    def test_runs_correctly_at_default_scale(self, name):
        result = REGISTRY.get(name).run()
        assert result.correct, f"{name} produced wrong output"
        assert result.cycles > 0
        assert result.work_items > 0

    def test_runs_correctly_with_one_tile(self, name):
        w = REGISTRY.get(name)
        result = w.run(config=w.default_config(ntiles=1))
        assert result.correct


class TestScaling:
    @pytest.mark.parametrize("name", ["matrix_add", "saxpy", "stencil"])
    def test_larger_problem_takes_longer(self, name):
        w = REGISTRY.get(name)
        small = w.run(scale=1)
        large = w.run(scale=2)
        assert large.correct
        assert large.cycles > small.cycles

    def test_more_tiles_helps_stencil(self):
        """Fig 15: stencil is compute-heavy and scales with tiles."""
        w = REGISTRY.get("stencil")
        one = w.run(config=w.default_config(ntiles=1), scale=2)
        four = w.run(config=w.default_config(ntiles=4), scale=2)
        assert four.cycles < one.cycles * 0.75

    def test_dedup_pipeline_flat_with_tiles(self):
        """Fig 15: dedup's baseline is already a 3-unit pipeline; extra
        tiles per task change little (stages are roughly balanced)."""
        w = REGISTRY.get("dedup")
        one = w.run(config=w.default_config(ntiles=1), scale=2)
        four = w.run(config=w.default_config(ntiles=4), scale=2)
        assert four.cycles > one.cycles * 0.5  # far from 4x scaling


class TestDedupSpecifics:
    def test_duplicates_marked(self):
        w = Dedup()
        acc = w.build()
        prepared = w.prepare(acc.memory, 1)
        acc.run(prepared.function, prepared.args)
        from repro.ir.types import I32

        out = acc.memory.read_array(prepared.args[2], I32,
                                    prepared.work_items)
        assert -2 in out           # some duplicates found
        assert any(v != -2 for v in out)

    def test_three_heterogeneous_units(self):
        acc = Dedup().build()
        names = {u.task.name for u in acc.units}
        assert names == {"dedup", "process_chunk", "compress_chunk"}


class TestFibonacciSpecifics:
    def test_fib_scale2_is_paper_n15(self):
        w = Fibonacci()
        assert w.default_n(2) == 15

    def test_result_matches_reference(self):
        result = Fibonacci().run()
        assert result.retval == fib_reference(12)


class TestMergesortSpecifics:
    def test_sorted_output_with_duplicate_keys(self):
        w = Mergesort()
        acc = w.build()
        from repro.ir.types import I32

        data = [5, 1, 5, 3, 5, 1, 2, 2]
        base = acc.memory.alloc_array(I32, data)
        acc.run("mergesort", [base, 0, len(data) - 1])
        assert acc.memory.read_array(base, I32, len(data)) == sorted(data)

    def test_single_element(self):
        w = Mergesort()
        acc = w.build()
        from repro.ir.types import I32

        base = acc.memory.alloc_array(I32, [42])
        acc.run("mergesort", [base, 0, 0])
        assert acc.memory.read_array(base, I32, 1) == [42]


class TestScaleMicro:
    def test_work_ops_reflected_in_source(self):
        w = ScaleMicro(work_ops=7)
        # 7 chained adders in the body plus the loop increment
        assert w.source.count("+ 1") == 8

    def test_runs_correctly(self):
        for ops in (1, 10, 50):
            result = ScaleMicro(work_ops=ops).run()
            assert result.correct, f"scale micro with {ops} adders failed"

    def test_more_work_more_cycles(self):
        fast = ScaleMicro(work_ops=1).run()
        slow = ScaleMicro(work_ops=50).run()
        assert slow.cycles > fast.cycles
