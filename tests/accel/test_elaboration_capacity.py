"""Elaboration costs what the design touches: neither the main-memory
size nor the L1 geometry is paid for before a run uses it."""

import resource
import sys

import pytest

from repro.workloads import REGISTRY


def _without_host_clock(stats):
    stats = dict(stats)
    stats.pop("engine", None)
    return stats


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is KiB here")
def test_a_gigabyte_memory_costs_what_the_run_touches():
    workload = REGISTRY.get("fibonacci")
    default = workload.run(workload.default_config())

    before_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    acc = workload.build(workload.default_config(memory_bytes=1 << 30))
    assert len(acc.cache._sets) == 0
    prepared = workload.prepare(acc.memory, 1)
    result = acc.run(prepared.function, prepared.args)
    grown_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before_kib

    assert prepared.check(acc.memory, result.retval)
    assert (result.cycles, result.retval, _without_host_clock(result.stats)) \
        == (default.cycles, default.retval, _without_host_clock(default.stats))
    assert grown_kib < 64 * 1024
    assert 0 < len(acc.cache._sets) <= acc.cache.misses
