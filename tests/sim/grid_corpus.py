"""Golden digests of the 84-configuration engine grid.

``tests/sim/data/grid_golden.json`` pins, for every registry workload at
1, 2 and 4 tiles under four memory systems (the default L1, a miss-bound
Arria 10 with a 1 KB / 1-MSHR cache and 270-cycle DRAM, the scratchpad
model and a two-bank L1), the sha256 of the cycle count, the return
value, the stats (minus ``engine``), the movement log and every observer
ledger timeline of an instrumented run at scale 1. It was taken on the
dense engine before TXU instances were scheduled by one written
scheduler; ``test_grid_golden.py`` holds every engine to it. Each run
also holds every message a demux routes to the route key the RTL top
prints for it (:func:`check_routes`). Regenerate only when a change is
*meant* to move a cycle, stat or ledger::

    PYTHONPATH=src python -m tests.sim.grid_corpus

:func:`module_digests` fingerprints the compiled engine's generated
texts over grid points in each instrumentation form: texts that must not
move (a codegen change that keeps every kernel byte-identical) are
compared as two dumps of it.
"""

import hashlib
import json
from collections import deque
from pathlib import Path

from repro.accel import ARRIA_10
from repro.memory.arbiter import Demux
from repro.memory.cache import CacheParams
from repro.obs import Observer
from repro.rtl.components import LIBRARY, TEMPLATES
from repro.sim import Trace
from repro.sim.compile import generate_modules
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


class Routed(deque):
    """The queue of a demux's output ``j``: every engine commits a pushed
    message with ``append``, and each must satisfy the route key the RTL
    top prints for the demux (``TEMPLATES``' ``RouteField``,
    ``RouteDivisor`` and ``RouteMask``)."""

    def __init__(self, j, key, log):
        super().__init__()
        self.j, self.key, self.log = j, key, log

    def append(self, message):
        field, divisor, mask = self.key
        assert getattr(message, field) // divisor & mask == self.j, message
        self.log.append(self.j)
        super().append(message)


def check_routes(sim) -> list:
    """Put a :class:`Routed` queue behind every demux output of ``sim``
    (before it runs); returns the log of the messages they check."""
    log = []
    for demux in sim.components:
        if type(demux) is Demux:
            printed = dict(zip(LIBRARY["Demux"].params,
                               TEMPLATES[Demux][1](demux)))
            key = (printed["RouteField"], printed["RouteDivisor"],
                   printed["RouteMask"])
            for j, channel in enumerate(demux.outputs):
                assert not channel._items
                channel._items = Routed(j, key, log)
    return log


def outcome(name: str, tiles: int, memory: str, engine: str,
            host_profile: bool = False):
    """``(digests, engine stats)`` of one instrumented run at scale 1,
    with a host profiler installed if ``host_profile``. Every message a
    demux routes is checked against its printed route key."""
    workload = REGISTRY.get(name)
    observer = Observer()
    accel = workload.build(
        workload.default_config(tiles, engine=engine, **MEMORIES[memory]),
        observer=observer)
    movement = accel.sim.enable_movement_log()
    routed = check_routes(accel.sim)
    if host_profile:
        accel.sim.enable_host_profile()
    prepared = workload.prepare(accel.memory, 1)
    result = accel.run(prepared.function, prepared.args)
    assert prepared.check(accel.memory, result.retval)
    assert len(routed) == sum(demux.stats()["routed"]
                              for demux in accel.sim.components
                              if type(demux) is Demux) > 0
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


#: what a design's kernel texts fold in besides the netlist: nothing, a
#: change-driven observer, an analysis trace, a host profiler
FORMS = ("plain", "observed", "traced", "profiled")


def kernel_digests(sim) -> list:
    """The sha256 of each text ``generate_modules(sim)`` returns."""
    return [hashlib.sha256(text.encode("utf-8")).hexdigest()
            for text in generate_modules(sim)]


def module_digests(forms) -> dict:
    """``{"<grid id>/<form>": kernel_digests}`` for each ``(name, tiles,
    memory, form)`` of ``forms``, its design elaborated afresh (scale 1)
    with the form's instrumentation attached."""
    digests = {}
    for name, tiles, memory, form in forms:
        workload = REGISTRY.get(name)
        accel = workload.build(
            workload.default_config(tiles, **MEMORIES[memory]),
            observer=Observer() if form == "observed" else None,
            trace=Trace(enabled=True) if form == "traced" else None)
        if form == "profiled":
            accel.sim.enable_host_profile()
        digests[grid_id(name, tiles, memory) + "/" + form] = \
            kernel_digests(accel.sim)
    return digests


def grid_snapshot(engine: str = "dense") -> dict:
    return {grid_id(*point): outcome(*point, engine)[0] for point in GRID}


if __name__ == "__main__":
    GRID_GOLDEN.parent.mkdir(exist_ok=True)
    GRID_GOLDEN.write_text(json.dumps(grid_snapshot(), indent=1) + "\n")
