"""Golden digests of the 84-configuration engine grid.

``tests/sim/data/grid_golden.json`` pins, for every registry workload at
1, 2 and 4 tiles under four memory systems (the default L1, a miss-bound
Arria 10 with a 1 KB / 1-MSHR cache and 270-cycle DRAM, the scratchpad
model and a two-bank L1), the sha256 of the cycle count, the return
value, the stats (minus ``engine``), the movement log and every observer
ledger timeline of an instrumented run at scale 1. It was taken on the
dense engine before TXU instances were scheduled by one written
scheduler; ``test_grid_golden.py`` holds every engine to it. Regenerate
only when a change is *meant* to move a cycle, stat or ledger::

    PYTHONPATH=src python -m tests.sim.grid_corpus
"""

import hashlib
import json
from pathlib import Path

from repro.accel import ARRIA_10
from repro.memory.cache import CacheParams
from repro.obs import Observer
from repro.workloads import REGISTRY

GRID_GOLDEN = Path(__file__).resolve().parent / "data" / "grid_golden.json"
TILES = (1, 2, 4)
MEMORIES = {
    "default": {},
    "membound": dict(board=ARRIA_10, dram_latency_cycles=270,
                     cache=CacheParams(size_bytes=1024, mshr_count=1)),
    "scratchpad": dict(memory_model="scratchpad"),
    "banked": dict(cache=CacheParams(banks=2)),
}
GRID = [(name, tiles, memory) for name in REGISTRY.names()
        for tiles in TILES for memory in MEMORIES]


def grid_id(name: str, tiles: int, memory: str) -> str:
    return f"{name}@t{tiles}-{memory}"


def _sha(value) -> str:
    text = json.dumps(value, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def outcome(name: str, tiles: int, memory: str, engine: str,
            host_profile: bool = False):
    """``(digests, engine stats)`` of one instrumented run at scale 1,
    with a host profiler installed if ``host_profile``."""
    workload = REGISTRY.get(name)
    observer = Observer()
    accel = workload.build(
        workload.default_config(tiles, engine=engine, **MEMORIES[memory]),
        observer=observer)
    movement = accel.sim.enable_movement_log()
    if host_profile:
        accel.sim.enable_host_profile()
    prepared = workload.prepare(accel.memory, 1)
    result = accel.run(prepared.function, prepared.args)
    assert prepared.check(accel.memory, result.retval)
    stats = dict(result.stats)
    engine_stats = stats.pop("engine")
    return {
        "cycles": _sha(result.cycles),
        "retval": _sha(result.retval),
        "stats": _sha(stats),
        "movement": _sha(list(movement)),
        "ledgers": _sha({key: ledger.timeline
                         for key, ledger in observer.ledgers.items()}),
    }, engine_stats


def grid_snapshot(engine: str = "dense") -> dict:
    return {grid_id(*point): outcome(*point, engine)[0] for point in GRID}


if __name__ == "__main__":
    GRID_GOLDEN.parent.mkdir(exist_ok=True)
    GRID_GOLDEN.write_text(json.dumps(grid_snapshot(), indent=1) + "\n")
