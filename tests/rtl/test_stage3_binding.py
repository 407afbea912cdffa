"""The RTL prints the design its config describes.

Every Stage-3 parameter is parsed back out of both RTL languages and
compared with the components of the :class:`Accelerator` elaborated from
the same design and config: each unit's Ntasks/Ntiles, each cache's (per
bank) geometry, the DRAM latency and the scratchpad latency. Both
emitters render that elaborated netlist, so they cannot disagree with it.
"""

import glob
import os
import re

import pytest

from repro.accel import Accelerator, AcceleratorConfig, TaskUnitParams, generate
from repro.frontend import compile_source
from repro.memory.cache import Cache, CacheParams
from repro.rtl import emit_design, emit_top_verilog

PROGRAMS = sorted(glob.glob(os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)))), "examples", "programs", "*.cilk")))
assert PROGRAMS, "examples/programs/*.cilk fixtures missing"

CACHES = {"default": {},
          "1KB-1MSHR": dict(cache=CacheParams(size_bytes=1024, mshr_count=1)),
          "banked": dict(cache=CacheParams(banks=4)),
          "scratchpad": dict(memory_model="scratchpad")}

#: per language: where the top ends, one instantiation as (library
#: module, parameter list), and one integer parameter value
SYNTAX = {
    "chisel": ("\n}", r"= Module\(new (\w+)\((.*)\)\)$", r"\w+=(\d+)"),
    "verilog": ("endmodule", r"^  tapas_(\w+) #\((.*)\) \w+ \($",
                r"\.\w+\((\d+)\)"),
}
EMITTERS = {"chisel": emit_design, "verilog": emit_top_verilog}


def _design(path):
    with open(path) as handle:
        return generate(compile_source(handle.read(), "m"))


def _parse(language, text):
    """Library module (lower case) -> integer parameters per instance."""
    end, instance, value = SYNTAX[language]
    found = {}
    for module, args in re.findall(instance, text[:text.index(end)], re.M):
        found.setdefault(module.lower(), []).append(
            tuple(map(int, re.findall(value, args))))
    # a unit's SID, Ntasks and Ntiles (ArgsBits is no Stage-3 knob)
    found["taskunit"] = [unit[:3] for unit in found.get("taskunit", ())]
    return found


def _elaborated(acc):
    caches = [c.params for c in acc.sim.components if isinstance(c, Cache)]
    expected = {
        "taskunit": [(u.sid, u.queue.depth, len(u.tiles)) for u in acc.units],
        "cache": [(p.size_bytes, p.line_bytes, p.associativity, p.mshr_count,
                   p.hit_latency) for p in caches],
        "nastimemslave": [(acc.dram.latency,)] if acc.dram else [],
        "scratchpad": ([(acc.scratchpad.latency,)]
                       if acc.scratchpad else []),
    }
    return {module: found for module, found in expected.items() if found}


def _printed(language, design, config):
    found = _parse(language, EMITTERS[language](design, config))
    return {module: found[module]
            for module in ("taskunit", "cache", "nastimemslave", "scratchpad")
            if found.get(module)}


@pytest.mark.parametrize("language", sorted(SYNTAX))
@pytest.mark.parametrize("cache", sorted(CACHES))
@pytest.mark.parametrize("tiles", [1, 4])
@pytest.mark.parametrize("path", PROGRAMS, ids=os.path.basename)
def test_rtl_parameters_are_the_elaborated_ones(path, tiles, cache, language):
    design = _design(path)
    config = AcceleratorConfig(default_ntiles=tiles, **CACHES[cache])
    expected = _elaborated(Accelerator(design, config))
    assert len(expected.get("cache", ())) == {
        "banked": 4, "scratchpad": 0}.get(cache, 1)
    assert _printed(language, design, config) == expected


@pytest.mark.parametrize("language", sorted(SYNTAX))
def test_per_unit_overrides_and_dram_latency_reach_the_rtl(language):
    design = _design(next(p for p in PROGRAMS if p.endswith("saxpy.cilk")))
    config = AcceleratorConfig(
        unit_params={"saxpy.t0": TaskUnitParams(ntiles=3, queue_depth=48)},
        dram_latency_cycles=270)
    expected = _elaborated(Accelerator(design, config))
    assert expected["taskunit"][1] == (1, 48, 3)
    assert expected["nastimemslave"] == [(270,)]
    assert _printed(language, design, config) == expected
