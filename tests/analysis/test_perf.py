"""Tests for the analytical performance model (repro.analysis.perf)."""

import glob
import json
import os

import pytest

from repro.accel import AcceleratorConfig, build_accelerator
from repro.analysis import perf
from repro.analysis.perf import PerfModel, Prediction
from repro.cli import _default_profile_args, _load_module
from repro.errors import TapasError
from repro.memory.backing import MainMemory
from repro.workloads import REGISTRY

PROGRAMS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "..", "..", "examples", "programs")

#: fixtures that intentionally deadlock, race or strand a task — the
#: predictor assumes a well-formed program that runs to completion
_SKIP = {"deadlock_ring", "racy_sum", "dead_task"}

EXAMPLE_PROGRAMS = sorted(
    path for path in glob.glob(os.path.join(PROGRAMS_DIR, "*.cilk"))
    if os.path.splitext(os.path.basename(path))[0] not in _SKIP)

#: per-program gate for the cross-validation band: the static model must
#: land within 3x of the simulator in both directions. Calibrated
#: points sit far inside this (see bench_predict_accuracy); the band is
#: a regression tripwire, not an accuracy claim.
BAND_LOW, BAND_HIGH = 1 / 3.0, 3.0

SIZE = 12


def _predict_program(path: str, tiles: int = 2):
    config = AcceleratorConfig(default_ntiles=tiles)
    module = _load_module(path)
    model = PerfModel(module, config=config)
    entry = module.functions[0].name
    args = _default_profile_args(module.functions[0], MainMemory(), SIZE)
    return model.predict(entry=entry, config=config, args=args, size=SIZE)


def _run_program(path: str, tiles: int = 2):
    config = AcceleratorConfig(default_ntiles=tiles)
    module = _load_module(path)
    accel = build_accelerator(module, config)
    args = _default_profile_args(module.functions[0], accel.memory, SIZE)
    return accel.run(module.functions[0].name, args)


class TestPredictionShape:
    def test_prediction_fields(self):
        workload = REGISTRY.get("saxpy")
        model = PerfModel(workload.fresh_module())
        config = workload.default_config(ntiles=2)
        prepared = workload.prepare(MainMemory(), 1)
        prediction = model.predict(entry=workload.entry, config=config,
                                   args=prepared.args,
                                   size=prepared.work_items)
        assert isinstance(prediction, Prediction)
        assert prediction.cycles > 0
        assert prediction.entry == "saxpy"
        assert prediction.bounds
        assert prediction.bottlenecks
        top = prediction.top_bottleneck
        assert top is prediction.bottlenecks[0]
        # ranked: non-increasing bound cycles
        bounds = [b.bound_cycles for b in prediction.bottlenecks]
        assert bounds == sorted(bounds, reverse=True)
        # shares form a distribution over the reported bottlenecks
        assert abs(sum(b.share for b in prediction.bottlenecks) - 1.0) < 1e-6
        assert prediction.tasks

    def test_as_dict_is_schema_one_and_json_safe(self):
        import json

        workload = REGISTRY.get("matrix_add")
        model = PerfModel(workload.fresh_module())
        config = workload.default_config(ntiles=1)
        prepared = workload.prepare(MainMemory(), 1)
        prediction = model.predict(entry=workload.entry, config=config,
                                   args=prepared.args,
                                   size=prepared.work_items)
        payload = prediction.as_dict()
        assert payload["schema"] == 1
        assert payload["predicted_cycles"] == prediction.cycles
        json.dumps(payload)  # must round-trip

    def test_render_text_mentions_bottlenecks(self):
        workload = REGISTRY.get("saxpy")
        model = PerfModel(workload.fresh_module())
        config = workload.default_config(ntiles=2)
        prepared = workload.prepare(MainMemory(), 1)
        prediction = model.predict(entry=workload.entry, config=config,
                                   args=prepared.args,
                                   size=prepared.work_items)
        text = prediction.render_text()
        assert "predicted cycles" in text
        assert "ranked bottlenecks" in text
        assert prediction.top_bottleneck.component in text

    def test_unknown_entry_raises(self):
        workload = REGISTRY.get("saxpy")
        model = PerfModel(workload.fresh_module())
        with pytest.raises(TapasError):
            model.predict(entry="nonexistent",
                          config=workload.default_config(ntiles=1))


class TestModelBehaviour:
    def test_more_work_predicts_more_cycles(self):
        workload = REGISTRY.get("matrix_add")
        model = PerfModel(workload.fresh_module())
        config = workload.default_config(ntiles=2)
        cycles = []
        for scale in (1, 2, 4):
            prepared = workload.prepare(MainMemory(), scale)
            prediction = model.predict(entry=workload.entry, config=config,
                                       args=prepared.args,
                                       size=prepared.work_items)
            cycles.append(prediction.cycles)
        assert cycles[0] < cycles[1] < cycles[2]

    def test_more_tiles_never_predicts_slower(self):
        workload = REGISTRY.get("stencil")
        model = PerfModel(workload.fresh_module())
        prepared = workload.prepare(MainMemory(), 2)
        cycles = []
        for tiles in (1, 2, 4):
            config = workload.default_config(ntiles=tiles)
            prediction = model.predict(entry=workload.entry, config=config,
                                       args=prepared.args,
                                       size=prepared.work_items)
            cycles.append(prediction.cycles)
        assert cycles[0] >= cycles[1] >= cycles[2]

    def test_model_is_reusable_across_points(self):
        """One model instance serves the whole (tiles, scale) grid."""
        workload = REGISTRY.get("saxpy")
        model = PerfModel(workload.fresh_module())
        prepared = workload.prepare(MainMemory(), 1)
        first = model.predict(entry=workload.entry,
                              config=workload.default_config(ntiles=1),
                              args=prepared.args, size=prepared.work_items)
        again = model.predict(entry=workload.entry,
                              config=workload.default_config(ntiles=1),
                              args=prepared.args, size=prepared.work_items)
        assert first.cycles == again.cycles

    def test_custom_params_change_the_prediction(self, monkeypatch):
        workload = REGISTRY.get("saxpy")
        config = workload.default_config(ntiles=1)
        prepared = workload.prepare(MainMemory(), 1)
        cycles = []
        for hit_round_trip in (perf.HIT_ROUND_TRIP, 120):
            monkeypatch.setattr(perf, "HIT_ROUND_TRIP", hit_round_trip)
            model = PerfModel(workload.fresh_module())
            cycles.append(model.predict(
                entry=workload.entry, config=config, args=prepared.args,
                size=prepared.work_items).cycles)
        assert cycles[1] > cycles[0]

    def test_bottleneck_vocabulary_is_ledger_shaped(self):
        """Predicted reasons reuse the simulator's stall-ledger tags."""
        known = {"memory", "allocator-full", "mshr-full", "execute",
                 "dispatch", "tiles-full", "sync-wait", "call-join",
                 "spawn-network", "dram-backpressure", "resp-backpressure",
                 "mem-backpressure", "cache-backpressure"}
        for name in ("saxpy", "fibonacci", "mergesort"):
            workload = REGISTRY.get(name)
            model = PerfModel(workload.fresh_module())
            config = workload.default_config(ntiles=2)
            prepared = workload.prepare(MainMemory(), 1)
            prediction = model.predict(entry=workload.entry, config=config,
                                       args=prepared.args,
                                       size=prepared.work_items)
            for bottleneck in prediction.bottlenecks:
                assert bottleneck.reason in known, bottleneck


@pytest.mark.parametrize(
    "path", EXAMPLE_PROGRAMS,
    ids=[os.path.splitext(os.path.basename(p))[0]
         for p in EXAMPLE_PROGRAMS])
def test_prediction_tracks_simulation(path):
    """Every shipped example program: static prediction within the
    gated band of an actual simulation, same synthetic inputs, and a
    ``repro predict --format json`` payload with ranked bottlenecks."""
    prediction = _predict_program(path)
    payload = json.loads(json.dumps(prediction.as_dict()))
    assert payload["schema"] == 1 and payload["bottlenecks"]
    assert payload["predicted_cycles"] == prediction.cycles > 0
    result = _run_program(path)
    actual = max(1, result.cycles)
    ratio = prediction.cycles / actual
    assert BAND_LOW <= ratio <= BAND_HIGH, (
        f"{os.path.basename(path)}: predicted {prediction.cycles} vs "
        f"simulated {result.cycles} (ratio {ratio:.2f} outside "
        f"[{BAND_LOW:.2f}, {BAND_HIGH:.2f}])")
