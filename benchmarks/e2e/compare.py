#!/usr/bin/env python3
"""Compare two sets of result files written by ``run.py --out``.

    python3 benchmarks/e2e/compare.py --parent P1.json [P2.json ...]
                                      --change C1.json [C2.json ...]

Prints one row per workload x end-to-end metric: each side's median and
quartiles, the ratio change/parent with its base (the parent's median),
the bound ``BENCHMARK.json`` fixes, and a verdict:

* ``unresolved`` — the run-to-run spread (distance between quartiles as
  a share of the median, the wider side) exceeds the bound and the two
  sides' runs overlap: more runs are needed, nothing may be claimed;
* ``regressed``  — the change's median is worse than the parent's by
  more than the bound;
* ``improved``   — at least ten pairs were run, the change is better in
  at least nine tenths of them (files paired in the order given, ties
  counting for neither) and the medians differ by more than the parent's
  own quartile spread;
* ``unchanged``  — none of the above.

``sim_cycles`` is exact (bound 0): any difference is reported. Exits
non-zero on any ``regressed`` row or when a workload's failed-op share
is higher on the change side.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

DECLARATION = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
#: a gain may be claimed from this many parent/change pairs on
MIN_PAIRS = 10
SIM_CYCLES = {"name": "sim_cycles", "unit": "cycles", "better": "lower",
              "bound": 0.0}


def quartiles(values: List[float]) -> Tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(parent: List[float], change: List[float], better: str,
            bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    pm, cm = statistics.median(parent), statistics.median(change)
    (p1, p3), (c1, c3) = quartiles(parent), quartiles(change)
    spread = max((p3 - p1) / pm, (c3 - c1) / cm)
    # in "lower is better" terms, whichever way the metric points
    p, c = [sign * v for v in parent], [sign * v for v in change]
    overlap = not (max(c) < min(p) or min(c) > max(p))
    if spread > bound and overlap:
        return "unresolved"
    if sign * (cm - pm) / pm > bound:
        return "regressed"
    pairs = list(zip(p, c))
    wins = sum(1 for a, b in pairs if b < a)
    losses = sum(1 for a, b in pairs if b > a)
    if len(pairs) >= MIN_PAIRS and wins >= 0.9 * (wins + losses) \
            and abs(cm - pm) > p3 - p1 and sign * (cm - pm) < 0:
        return "improved"
    return "unchanged"


def collect(paths: List[str]) -> Dict[str, dict]:
    """workload -> {"metrics": {name: [values]}, attempted, failed}."""
    out: Dict[str, dict] = {}
    for path in paths:
        document = json.loads(Path(path).read_text())
        for name, entry in document["workloads"].items():
            if "end_to_end" not in entry:
                continue
            side = out.setdefault(name, {"metrics": {}, "attempted": 0,
                                         "failed": 0})
            side["attempted"] += entry["attempted"]
            side["failed"] += entry["failed"]
            values = dict(entry["end_to_end"])
            values["sim_cycles"] = entry["end_to_end_detail"]["sim_cycles"]
            for metric, value in values.items():
                side["metrics"].setdefault(metric, []).append(value)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args(argv)
    parent, change = collect(args.parent), collect(args.change)

    bad = 0
    print(f"{'workload':<13} {'metric':<12} "
          f"{'parent median [q1, q3]':>38} {'change median [q1, q3]':>38} "
          f"{'ratio':>8} {'bound':>6}  verdict")
    for workload in (w["name"] for w in DECLARATION["workloads"]):
        if workload not in parent or workload not in change:
            continue
        p_side, c_side = parent[workload], change[workload]
        for declared in DECLARATION["end_to_end"] + [SIM_CYCLES]:
            metric = declared["name"]
            p = p_side["metrics"].get(metric)
            c = c_side["metrics"].get(metric)
            if not p or not c or not any(p + c):
                continue  # sim_cycles on a workload that simulates nothing
            result = verdict(p, c, declared["better"], declared["bound"])
            bad += result == "regressed"
            cells = []
            for values in (p, c):
                q1, q3 = quartiles(values)
                cells.append(f"{statistics.median(values):.6g} "
                             f"[{q1:.6g}, {q3:.6g}]")
            ratio = statistics.median(c) / statistics.median(p)
            print(f"{workload:<13} {metric:<12} {cells[0]:>38} "
                  f"{cells[1]:>38} {ratio:>8.3f} {declared['bound']:>6.0%}"
                  f"  {result}")
        p_share = p_side["failed"] / p_side["attempted"]
        c_share = c_side["failed"] / c_side["attempted"]
        worse = c_share > p_share
        bad += worse
        print(f"{workload:<13} {'failed_ops':<12} "
              f"{p_side['failed']:>31} of {p_side['attempted']:<5}"
              f"{c_side['failed']:>31} of {c_side['attempted']:<5}"
              f"{'':>15}  {'MORE FAILURES' if worse else 'ok'}")
    print(f"ratio = change median / parent median (base: parent, "
          f"{len(args.parent)} run(s); change {len(args.change)} run(s)); "
          f"{bad} blocking row(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
