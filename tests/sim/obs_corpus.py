"""Golden digests of what an instrumented run leaves behind.

``tests/sim/data/obs_golden.json`` pins, for every registry workload at
1 and 2 tiles under the compiled engine, the sha256 of the exported
Perfetto bytes and of the canonical ``Observer.as_dict()``. It was taken
at the parent of the commit that rewrote the exporter and the ledgers;
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
TILES = (1, 2)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def observed(name: str, tiles: int):
    """``(observer, trace)`` of one instrumented compiled run."""
    workload = REGISTRY.get(name)
    observer, trace = Observer(), Trace(enabled=True)
    workload.run(workload.default_config(tiles), scale=1, trace=trace,
                 observer=observer)
    return observer, trace


def digests(observer, trace) -> dict:
    exported = io.StringIO()
    export_chrome_trace(exported, observer=observer, trace=trace)
    return {"export": _sha(exported.getvalue()),
            "observer": _sha(json.dumps(observer.as_dict(), sort_keys=True))}


def obs_snapshot() -> dict:
    return {f"{name}@t{tiles}": digests(*observed(name, tiles))
            for name in REGISTRY.names() for tiles in TILES}


if __name__ == "__main__":
    OBS_GOLDEN.parent.mkdir(exist_ok=True)
    OBS_GOLDEN.write_text(json.dumps(obs_snapshot(), indent=1) + "\n")
