"""Declarative sweep grids.

A *point spec* is a plain-JSON dict — nothing but strings, numbers,
booleans, lists and dicts — naming an evaluator plus its inputs:

    {"evaluator": "workload", "workload": "fibonacci",
     "tiles": 4, "scale": 2, "engine": "compiled", "overrides": {...}}

Plain JSON is a hard requirement, not a style choice: specs cross
process boundaries (pickled to sweep workers) and feed the
content-addressed cache key (canonical JSON), so they must serialise
identically everywhere. Rich config objects are rebuilt *inside* the
worker from the spec (:func:`config_from_spec`).
"""

from __future__ import annotations

from itertools import product
from typing import Any, Dict, Iterable, List, Mapping, Optional, Union

from repro.errors import ConfigError
from repro.sim.engine import DEFAULT_ENGINE


def expand_grid(axes: Mapping[str, Iterable[Any]]) -> List[Dict[str, Any]]:
    """Cartesian product of named axes, in deterministic order: axes
    vary slowest-first in insertion order, values in the given order."""
    names = list(axes)
    value_lists = [list(axes[name]) for name in names]
    for name, values in zip(names, value_lists):
        if not values:
            raise ConfigError(f"sweep axis {name!r} has no values")
    return [dict(zip(names, combo)) for combo in product(*value_lists)]


def workload_points(workloads: Iterable[str],
                    tiles: Iterable[int] = (1,),
                    scales: Union[int, Mapping[str, int]] = 1,
                    engines: Iterable[str] = (DEFAULT_ENGINE,),
                    overrides: Optional[Dict[str, Any]] = None,
                    evaluator: str = "workload",
                    ) -> List[Dict[str, Any]]:
    """Point specs for the built-in workload-shaped evaluators.

    ``scales`` is either one scale for every workload or a per-workload
    mapping (the usual shape: recursive benchmarks need smaller inputs
    than streaming ones).  ``evaluator`` selects who computes the point:
    ``"workload"`` runs the simulator, ``"static"`` the analytical
    performance model (same spec shape, so the two sweeps share a grid
    and line up record-for-record).
    """
    points = []
    for name in workloads:
        scale = scales if isinstance(scales, int) else scales[name]
        for combo in expand_grid({"tiles": tiles, "engine": engines}):
            spec: Dict[str, Any] = {
                "evaluator": evaluator, "workload": name,
                "tiles": combo["tiles"], "scale": scale,
                "engine": combo["engine"],
            }
            if overrides:
                spec["overrides"] = dict(overrides)
            points.append(spec)
    return points


#: override keys config_from_spec understands; anything else is a typo
#: we refuse to silently drop (it would poison the cache key space)
_OVERRIDE_KEYS = ("board", "cache", "dram_latency_cycles", "memory_model",
                  "scratchpad_latency", "analysis_level", "memory_bytes",
                  "unit_params")


def config_from_spec(workload, spec: Mapping[str, Any]):
    """Rebuild an :class:`~repro.accel.AcceleratorConfig` from a plain
    point spec, inside the worker process. Boards are named, cache
    geometry is a field dict — the inverse of the JSON encoding the
    cache key is computed over."""
    from repro.accel import TaskUnitParams
    from repro.accel.config import BOARDS
    from repro.memory.cache import CacheParams

    overrides = dict(spec.get("overrides") or {})
    unknown = sorted(set(overrides) - set(_OVERRIDE_KEYS))
    if unknown:
        raise ConfigError(
            f"unknown sweep override(s) {unknown}; supported: "
            f"{sorted(_OVERRIDE_KEYS)}")
    kwargs: Dict[str, Any] = {"engine": spec.get("engine", DEFAULT_ENGINE)}
    if "board" in overrides:
        name = overrides["board"]
        if name not in BOARDS:
            raise ConfigError(
                f"unknown board {name!r}; have {sorted(BOARDS)}")
        kwargs["board"] = BOARDS[name]
    if "cache" in overrides:
        kwargs["cache"] = CacheParams(**overrides["cache"])
    if "unit_params" in overrides:
        kwargs["unit_params"] = {
            task: TaskUnitParams(**params)
            for task, params in overrides["unit_params"].items()}
    for key in ("dram_latency_cycles", "memory_model", "scratchpad_latency",
                "analysis_level", "memory_bytes"):
        if key in overrides:
            kwargs[key] = overrides[key]
    return workload.default_config(spec.get("tiles"), **kwargs)
