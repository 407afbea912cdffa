"""Every engine reproduces the grid pinned in ``data/grid_golden.json``.

The golden was taken on the dense engine (see ``grid_corpus.py``). The
compiled kernel runs all 84 configurations without falling back, plain
and with a host profiler's clock generated in; dense and event run the
28 two-tile ones, so the oracle itself is held to the numbers it
produced before it shared the kernel's instance scheduler.
"""

import json

import pytest

from tests.sim.grid_corpus import GRID, GRID_GOLDEN, grid_id, outcome

GOLDEN = json.loads(GRID_GOLDEN.read_text())
TWO_TILES = [point for point in GRID if point[1] == 2]


def test_golden_covers_the_grid():
    assert sorted(GOLDEN) == sorted(grid_id(*point) for point in GRID)
    assert len(GRID) == 84


@pytest.mark.parametrize("name, tiles, memory", GRID,
                         ids=[grid_id(*point) for point in GRID])
def test_compiled_matches_golden(name, tiles, memory):
    digests, engine = outcome(name, tiles, memory, "compiled")
    assert engine["compiled_fallback"] is None
    assert digests == GOLDEN[grid_id(name, tiles, memory)]


@pytest.mark.parametrize("name, tiles, memory", GRID,
                         ids=[grid_id(*point) for point in GRID])
def test_profiled_kernel_matches_golden(name, tiles, memory):
    digests, engine = outcome(name, tiles, memory, "compiled",
                              host_profile=True)
    assert engine["compiled_fallback"] is None
    assert digests == GOLDEN[grid_id(name, tiles, memory)]


@pytest.mark.parametrize("engine", ["dense", "event"])
@pytest.mark.parametrize("name, tiles, memory", TWO_TILES,
                         ids=[grid_id(*point) for point in TWO_TILES])
def test_reference_engines_match_golden(name, tiles, memory, engine):
    digests, _ = outcome(name, tiles, memory, engine)
    assert digests == GOLDEN[grid_id(name, tiles, memory)]
