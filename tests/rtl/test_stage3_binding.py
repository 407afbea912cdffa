"""The RTL prints the design its config describes.

Every Stage-3 parameter is parsed back out of both RTL languages and
compared with the :class:`Accelerator` elaborated from the same design
and config — the emitters and the simulator read one binding
(``AcceleratorConfig.bind_unit``), so they cannot disagree.
"""

import glob
import os
import re

import pytest

from repro.accel import Accelerator, AcceleratorConfig, TaskUnitParams, generate
from repro.frontend import compile_source
from repro.memory.cache import CacheParams
from repro.rtl import emit_design, emit_top_verilog

PROGRAMS = sorted(glob.glob(os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)))), "examples", "programs", "*.cilk")))
assert PROGRAMS, "examples/programs/*.cilk fixtures missing"

CACHES = {"default": CacheParams,
          "1KB-1MSHR": lambda: CacheParams(size_bytes=1024, mshr_count=1)}

#: per language: task units as (Ntasks, Ntiles) in SID order, the L1 as
#: (size, line, ways, MSHRs), and the DRAM latency where it is printed
#: (the Verilog top reaches DRAM through its AXI master port)
PATTERNS = {
    "chisel": (
        r"val Task(\d+) = Module\(new TaskUnit\(Nt=(\d+), Ntiles=(\d+),",
        r"new Cache\(SizeBytes=(\d+), LineBytes=(\d+), Ways=(\d+), "
        r"MSHRs=(\d+)\)",
        r"new NastiMemSlave\(LatencyCycles=(\d+)\)"),
    "verilog": (
        r"tapas_taskunit #\(\.SID\((\d+)\), \.NTASKS\((\d+)\), "
        r"\.NTILES\((\d+)\)\)",
        r"tapas_cache #\(\.SIZE_BYTES\((\d+)\), \.LINE_BYTES\((\d+)\), "
        r"\.WAYS\((\d+)\), \.MSHRS\((\d+)\)\)",
        None),
}
EMITTERS = {"chisel": emit_design, "verilog": emit_top_verilog}


def _design(path):
    with open(path) as handle:
        return generate(compile_source(handle.read(), "m"))


def _parse(language, text):
    unit_re, cache_re, dram_re = PATTERNS[language]
    units = [tuple(map(int, m)) for m in re.findall(unit_re, text)]
    assert [sid for sid, _, _ in units] == list(range(len(units)))
    (cache,) = re.findall(cache_re, text)
    dram = None
    if dram_re is not None:
        (dram,) = map(int, re.findall(dram_re, text))
    return [u[1:] for u in units], tuple(map(int, cache)), dram


def _elaborated(acc):
    params = acc.cache.params
    return ([(u.queue.depth, len(u.tiles)) for u in acc.units],
            (params.size_bytes, params.line_bytes, params.associativity,
             params.mshr_count),
            acc.dram.latency)


@pytest.mark.parametrize("language", sorted(PATTERNS))
@pytest.mark.parametrize("cache", sorted(CACHES))
@pytest.mark.parametrize("tiles", [1, 4])
@pytest.mark.parametrize("path", PROGRAMS, ids=os.path.basename)
def test_rtl_parameters_are_the_elaborated_ones(path, tiles, cache, language):
    design = _design(path)
    config = AcceleratorConfig(default_ntiles=tiles, cache=CACHES[cache]())
    units, l1, dram = _elaborated(Accelerator(design, config))
    got_units, got_l1, got_dram = _parse(
        language, EMITTERS[language](design, config))
    assert got_units == units
    assert got_l1 == l1
    assert got_dram == (dram if language == "chisel" else None)


@pytest.mark.parametrize("language", sorted(PATTERNS))
def test_per_unit_overrides_and_dram_latency_reach_the_rtl(language):
    design = _design(next(p for p in PROGRAMS if p.endswith("saxpy.cilk")))
    config = AcceleratorConfig(
        unit_params={"saxpy.t0": TaskUnitParams(ntiles=3, queue_depth=48)},
        dram_latency_cycles=270)
    expected = _elaborated(Accelerator(design, config))
    assert expected[0][1] == (48, 3) and expected[2] == 270
    got = _parse(language, EMITTERS[language](design, config))
    assert got[:2] == expected[:2]
    assert got[2] == (270 if language == "chisel" else None)
