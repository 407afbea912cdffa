"""Golden digests of what an instrumented run leaves behind.

``tests/sim/data/obs_golden.json`` pins, for every registry workload at
1, 2 and 4 tiles (scale 1) and for the ``sim_observed`` ops of
``benchmarks/e2e`` at their own shapes (tiles 2: fibonacci and stencil at
scale 1, saxpy at scale 4), the sha256 of the exported Perfetto bytes and
of the canonical ``Observer.as_dict()`` under the compiled engine. Each
key was taken before the exporter or the sampler it pins was rewritten;
``test_obs_export.py`` compares today's output against it. Regenerate
only when a change is *meant* to move an exported byte or a ledger
view::

    PYTHONPATH=src python -m tests.sim.obs_corpus
"""

import hashlib
import io
import json
from pathlib import Path

from repro.obs import Observer, export_chrome_trace
from repro.sim import Trace
from repro.workloads import REGISTRY

OBS_GOLDEN = Path(__file__).resolve().parent / "data" / "obs_golden.json"
TILES = (1, 2, 4)
#: ``(workload, scale, tiles)``: the registry at scale 1, then the
#: ``sim_observed`` op not already among those
RUNS = [(name, 1, tiles) for name in REGISTRY.names() for tiles in TILES] + [
    ("saxpy", 4, 2)]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_id(name: str, scale: int, tiles: int) -> str:
    """The golden key: ``name@t<tiles>``, ``name@s<scale>t<tiles>`` past scale 1."""
    return f"{name}@t{tiles}" if scale == 1 else f"{name}@s{scale}t{tiles}"


def observed(name: str, tiles: int, scale: int = 1):
    """``(observer, trace)`` of one instrumented compiled run."""
    workload = REGISTRY.get(name)
    observer, trace = Observer(), Trace(enabled=True)
    workload.run(workload.default_config(tiles), scale=scale, trace=trace,
                 observer=observer)
    return observer, trace


def digests(observer, trace) -> dict:
    exported = io.StringIO()
    export_chrome_trace(exported, observer=observer, trace=trace)
    return {"export": _sha(exported.getvalue()),
            "observer": _sha(json.dumps(observer.as_dict(), sort_keys=True))}


def obs_snapshot() -> dict:
    return {run_id(name, scale, tiles): digests(*observed(name, tiles, scale))
            for name, scale, tiles in RUNS}


if __name__ == "__main__":
    OBS_GOLDEN.parent.mkdir(exist_ok=True)
    OBS_GOLDEN.write_text(json.dumps(obs_snapshot(), indent=1) + "\n")
