"""The performance trajectory: the end-to-end ledger a perf PR commits.

``benchmarks/e2e/run.py`` writes one document per measured tree into
``results/e2e/``: ``<rev>.json`` measures the parent commit ``<rev>`` and
``<rev>-pr<N>.json`` the change on top of it (a commit cannot name
itself). :func:`ledger_history` pairs each change with its parent,
orders the pairs by N and, per workload and end-to-end metric that
``BENCHMARK.json`` declares, takes the ratio change/parent and marks it
when it is worse than the metric's bound. Both paths resolve against
the working directory, like every other default path; anything missing,
orphaned or unreadable is a :class:`TapasError`.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Any, Dict, List, Tuple

from repro.errors import TapasError

LEDGER_DIR = Path("results") / "e2e"
DECLARATION = Path("BENCHMARK.json")

_CHANGE = re.compile(r"(.+)-pr(\d+)\.json")


def _read_json(path: Path) -> Any:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as error:
        raise TapasError(f"{path}: unreadable ({error})") from None


def load_ledger_document(path, declaration: dict
                         ) -> Dict[str, Dict[str, float]]:
    """``{workload: {metric: value}}`` of one ledger document: every
    end-to-end metric of ``declaration`` (parsed ``BENCHMARK.json``) plus
    ``sim_cycles``, for every workload it declares."""
    document = _read_json(Path(path))
    out = {}
    for workload in (w["name"] for w in declaration["workloads"]):
        try:
            entry = document["workloads"][workload]
            values = {m["name"]: entry["end_to_end"][m["name"]]
                      for m in declaration["end_to_end"]}
            values["sim_cycles"] = entry["end_to_end_detail"]["sim_cycles"]
        except (KeyError, TypeError) as error:
            raise TapasError(
                f"{path}: workload {workload!r} lacks {error}") from None
        for metric, value in values.items():
            # a ratio needs a positive base; sim_cycles is 0 on a
            # workload that simulates nothing
            if type(value) not in (int, float) or value < 0 \
                    or (value == 0 and metric != "sim_cycles"):
                raise TapasError(f"{path}: {workload} {metric} is "
                                 f"{value!r}, not a positive number")
        out[workload] = values
    return out


def _worse_than_bound(ratio: float, declared: dict) -> bool:
    """Whether a change/parent ``ratio`` of a ``BENCHMARK.json``
    end-to-end metric moved the wrong way by more than its bound."""
    loss = ratio - 1 if declared["better"] == "lower" else 1 - ratio
    return loss > declared["bound"]


def ledger_history() -> Tuple[dict, int, List[Dict[str, Any]]]:
    """``(declaration, documents, rows)``: one row per PR pair and
    declared workload, ``{"pr", "change", "parent", "workload",
    "ratios": {metric: change / parent}, "marked": [metric, ...]}``,
    ordered by PR number."""
    declaration = _read_json(DECLARATION)
    if not LEDGER_DIR.is_dir():
        raise TapasError(f"{LEDGER_DIR}: no ledger directory")
    paths = sorted(LEDGER_DIR.glob("*.json"))
    documents = {path.name: load_ledger_document(path, declaration)
                 for path in paths}
    pairs = []
    for name in documents:
        match = _CHANGE.fullmatch(name)
        if match is None:
            continue
        parent = f"{match.group(1)}.json"
        if parent not in documents:
            raise TapasError(f"{LEDGER_DIR / name}: no parent document "
                             f"{parent}")
        pairs.append((int(match.group(2)), name, parent))
    rows = []
    for pr, change, parent in sorted(pairs):
        for workload, values in documents[change].items():
            ratios = {m["name"]: values[m["name"]]
                      / documents[parent][workload][m["name"]]
                      for m in declaration["end_to_end"]}
            rows.append({
                "pr": pr, "change": change, "parent": parent,
                "workload": workload, "ratios": ratios,
                "marked": [m["name"] for m in declaration["end_to_end"]
                           if _worse_than_bound(ratios[m["name"]], m)]})
    return declaration, len(documents), rows
