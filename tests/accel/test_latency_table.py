"""The TXU node-latency table is bound once, in ``AcceleratorConfig``: a
partial table overrides what it names on top of ``DEFAULT_LATENCIES``, so
the tiles and the predictor read the same complete table."""

import pytest

from repro.accel import AcceleratorConfig
from repro.errors import ConfigError
from repro.task.txu import DEFAULT_LATENCIES
from repro.workloads import REGISTRY

PARTIAL = {"alu": 3, "mul": 9}


def test_partial_table_is_merged_onto_the_defaults():
    config = AcceleratorConfig(latencies=PARTIAL)
    assert config.latencies == {**DEFAULT_LATENCIES, **PARTIAL}
    assert AcceleratorConfig().latencies == DEFAULT_LATENCIES


def test_partial_table_simulates_like_the_merged_one():
    workload = REGISTRY.get("stencil")
    partial = workload.run(workload.default_config(2, latencies=PARTIAL))
    merged = workload.run(workload.default_config(
        2, latencies={**DEFAULT_LATENCIES, **PARTIAL}))
    assert partial.correct and merged.correct
    assert partial.cycles == merged.cycles
    assert partial.cycles != workload.run(workload.default_config(2)).cycles


def test_unknown_latency_class_is_refused():
    with pytest.raises(ConfigError, match="'mull'"):
        AcceleratorConfig(latencies={"mull": 3})


@pytest.mark.parametrize("cycles", [-3, 2.5, "3"])
def test_negative_or_fractional_latency_is_refused(cycles):
    with pytest.raises(ConfigError, match="'mul' must be an integer >= 0"):
        AcceleratorConfig(latencies={"mul": cycles})
