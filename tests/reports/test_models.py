"""Tests for the resource/frequency/power models against the paper's data."""

import pytest

from repro.accel import (
    ARRIA_10,
    CYCLONE_V,
    AcceleratorConfig,
    TaskUnitParams,
    build_accelerator,
)
from repro.memory.cache import CacheParams
from repro.reports import (
    TABLE4_ROWS,
    estimate_mhz,
    estimate_resources,
    fit_to_table4,
    fpga_power_watts,
    perf_per_watt_gain,
    render_series,
    render_table,
)
from repro.reports.power import ALM_F_COEF, BRAM_F_COEF, STATIC_W
from repro.workloads import REGISTRY, ScaleMicro

#: Table III (Cyclone V): (tiles, instructions) -> (MHz, ALMs, Regs, BRAM)
TABLE3 = {
    (1, 1): (185.46, 1314, 1424, 1),
    (1, 50): (178.09, 2955, 3523, 1),
    (10, 1): (153.61, 7107, 8547, 1),
    (10, 50): (159.24, 24738, 27604, 1),
}


def micro_accelerator(tiles, ins):
    w = ScaleMicro(work_ops=ins)
    cfg = AcceleratorConfig(unit_params={
        "scale": TaskUnitParams(ntiles=1),
        "scale.t0": TaskUnitParams(ntiles=tiles),
    })
    return build_accelerator(w.fresh_module(), cfg)


class TestResourceModelVsTable3:
    @pytest.mark.parametrize("config", list(TABLE3))
    def test_alms_within_25_percent(self, config):
        tiles, ins = config
        report = estimate_resources(micro_accelerator(tiles, ins))
        paper = TABLE3[config][1]
        assert abs(report.alms - paper) / paper < 0.25

    @pytest.mark.parametrize("config", list(TABLE3))
    def test_registers_within_40_percent(self, config):
        tiles, ins = config
        report = estimate_resources(micro_accelerator(tiles, ins))
        paper = TABLE3[config][2]
        assert abs(report.regs - paper) / paper < 0.40

    def test_single_bram_for_small_queues(self):
        report = estimate_resources(micro_accelerator(10, 50))
        assert report.brams == 1  # paper: one M20K for the task queue

    def test_alm_linear_in_tiles(self):
        a1 = estimate_resources(micro_accelerator(1, 50)).alms
        a10 = estimate_resources(micro_accelerator(10, 50)).alms
        per_tile = (a10 - a1) / 9
        assert 1500 < per_tile < 2800  # ~50 ops + tile overhead

    def test_breakdown_sums_to_total(self):
        report = estimate_resources(micro_accelerator(10, 50))
        assert sum(report.breakdown().values()) == report.alms

    def test_breakdown_shape_fig14(self):
        """Fig 14: at 1 op/task control dominates; at 10 tiles x 50 ops
        the tiles take over and control shrinks to a sliver."""
        small = estimate_resources(micro_accelerator(1, 1)).breakdown()
        big = estimate_resources(micro_accelerator(10, 50)).breakdown()

        def non_compute_share(b):
            total = sum(b.values())
            return (b["task_ctrl"] + b["mem_arb"] + b["misc"]) / total

        assert non_compute_share(small) > 0.35
        assert non_compute_share(big) < 0.12

    def test_recursive_queue_storage_costs_brams(self):
        """Table IV: fib/mergesort spend 62-74 M20Ks on queue state."""
        fib = REGISTRY.get("fibonacci").build()
        report = estimate_resources(fib)
        assert 30 <= report.brams <= 90

    def test_cache_brams_optional(self):
        acc = micro_accelerator(1, 1)
        without = estimate_resources(acc, include_cache=False)
        with_cache = estimate_resources(acc, include_cache=True)
        assert with_cache.brams - without.brams == 7  # 16KB / 20Kb blocks

    @pytest.mark.parametrize("banks, cache_brams", [(1, 7), (2, 8), (4, 8)])
    def test_every_l1_bank_data_array_counted(self, banks, cache_brams):
        """A banked L1 elaborates one cache per bank, each with its own
        data array: 2 x 8 KB and 4 x 4 KB round up to 4 and 2 M20Ks."""
        w = REGISTRY.get("saxpy")
        acc = build_accelerator(w.fresh_module(), w.default_config(
            1, cache=CacheParams(banks=banks)))
        report = estimate_resources(acc, include_cache=True)
        assert report.cache_brams == cache_brams
        assert report.brams == estimate_resources(acc).brams + cache_brams

    def test_width_aware_sizing_shrinks_a_narrow_datapath(self):
        """``narrow_sum.cilk`` keeps an 11-bit sum and a 4-bit counter in
        i32 cells: sized by inferred range, the datapath costs less."""
        import os

        from repro.cli import _load_module

        accel = build_accelerator(_load_module(os.path.join(
            os.path.dirname(__file__), "..", "..", "examples", "programs",
            "narrow_sum.cilk")), AcceleratorConfig())
        assert estimate_resources(accel, width_aware=True).alms \
            < estimate_resources(accel).alms


class TestFrequencyModel:
    def test_cyclone_small_design(self):
        assert estimate_mhz(CYCLONE_V, 1314) == pytest.approx(185, rel=0.08)

    def test_cyclone_large_design(self):
        assert estimate_mhz(CYCLONE_V, 24738) == pytest.approx(159, rel=0.15)

    def test_arria_roughly_double(self):
        assert estimate_mhz(ARRIA_10, 28844) == pytest.approx(308, rel=0.08)

    def test_monotone_decreasing(self):
        assert estimate_mhz(CYCLONE_V, 1000) > estimate_mhz(CYCLONE_V, 30000)

    def test_floor(self):
        assert estimate_mhz(CYCLONE_V, 10_000_000) >= 60.0


class TestPowerModel:
    def test_stored_coefficients_match_refit(self):
        c0, c1, c2 = fit_to_table4()
        assert c0 == pytest.approx(STATIC_W, rel=1e-3)
        assert c1 == pytest.approx(ALM_F_COEF, rel=1e-3)
        assert c2 == pytest.approx(BRAM_F_COEF, rel=1e-3)

    @pytest.mark.parametrize("row", TABLE4_ROWS, ids=lambda r: r[0])
    def test_predicts_table4_within_35_percent(self, row):
        name, mhz, alms, _regs, bram, watts = row
        predicted = fpga_power_watts(alms, bram, mhz)
        assert abs(predicted - watts) / watts < 0.35

    def test_perf_per_watt_gain(self):
        # FPGA: 2x slower but 50x less power -> 25x better perf/W
        gain = perf_per_watt_gain(fpga_seconds=2.0, fpga_watts=1.0,
                                  cpu_seconds=1.0, cpu_watts=50.0)
        assert gain == pytest.approx(25.0)


class TestTableRendering:
    def test_render_table_alignment(self):
        out = render_table(["name", "val"], [["a", 1], ["bb", 22]],
                           title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert len(lines) == 5

    def test_render_series(self):
        out = render_series("Fig", "x", [1, 2], [("s1", [10, 20])])
        assert "Fig" in out and "s1" in out and "20" in out
