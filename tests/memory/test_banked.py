"""Tests for the banked shared-L1 (§VI future-work extension)."""

import re

import pytest

from dataclasses import replace

from repro.accel import generate
from repro.errors import ConfigError
from repro.memory.cache import CacheParams
from repro.rtl import emit_top_verilog
from repro.workloads import REGISTRY


class TestBankParams:
    def test_bank_count_must_be_power_of_two(self):
        with pytest.raises(ConfigError):
            CacheParams(banks=3)

    def test_bank_slice_geometry(self):
        params = CacheParams(size_bytes=16 * 1024, banks=4)
        slice_ = params.bank_params()
        assert slice_.size_bytes == 4 * 1024
        assert slice_.banks == 1
        # total sets across banks equal the unbanked configuration
        unbanked = CacheParams(size_bytes=16 * 1024, banks=1)
        assert params.sets * 4 == unbanked.sets

    def test_indivisible_geometry_rejected(self):
        with pytest.raises(ConfigError):
            CacheParams(size_bytes=256, line_bytes=32, associativity=2,
                        banks=8)


@pytest.mark.parametrize("banks", [2, 4])
class TestBankedCorrectness:
    """Every workload computes identical results on a banked L1."""

    @pytest.mark.parametrize("name", ["matrix_add", "dedup", "mergesort",
                                      "fibonacci", "saxpy"])
    def test_workload_correct(self, name, banks):
        workload = REGISTRY.get(name)
        config = replace(workload.default_config(),
                         cache=CacheParams(banks=banks))
        result = workload.run(config=config)
        assert result.correct, f"{name} wrong with {banks} banks"

    def test_stats_aggregate_across_banks(self, banks):
        workload = REGISTRY.get("matrix_add")
        config = replace(workload.default_config(),
                         cache=CacheParams(banks=banks))
        result = workload.run(config=config)
        cache_stats = result.stats["cache"]
        assert cache_stats["banks"] == banks
        assert cache_stats["hits"] + cache_stats["misses"] > 0


class TestBankDistribution:
    def test_lines_spread_across_banks(self):
        """Sequential lines must land in different banks (interleaving),
        and the index shift must use every set of every bank."""
        workload = REGISTRY.get("matrix_add")
        config = replace(workload.default_config(ntiles=4),
                         cache=CacheParams(banks=4))
        accel = workload.build(config)
        prepared = workload.prepare(accel.memory, 2)
        accel.run(prepared.function, prepared.args)
        per_bank = [c.hits + c.misses for c in accel.banked.caches]
        assert all(count > 0 for count in per_bank), per_bank
        # traffic is roughly balanced (within 4x of each other)
        assert max(per_bank) < 4 * max(1, min(per_bank))


@pytest.mark.parametrize("banks", [2, 4])
def test_bank_routers_divide_by_the_line_size(banks):
    """24-byte lines (``test_engine_diff`` runs them on every engine): each
    unit's bank router prints ``addr // 24 & (banks - 1)``, a route no
    shift can express."""
    workload = REGISTRY.get("saxpy")
    config = workload.default_config(2, cache=CacheParams(
        size_bytes=12288, line_bytes=24, banks=banks))
    top = emit_top_verilog(generate(workload.fresh_module()), config)
    routers = re.findall(r"tapas_demux #\((.*)\) membank_u\d+_bankrouter ", top)
    assert len(routers) == len(workload.build(config).banked.unit_request)
    assert set(routers) == {'.OUTPUTS(%d), .LEVELS(1), .ROUTE_FIELD("addr"), '
                            '.ROUTE_DIVISOR(24), .ROUTE_MASK(%d)'
                            % (banks, banks - 1)}
