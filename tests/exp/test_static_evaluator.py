"""Tests for the ``static`` sweep evaluator (analytical model)."""

from repro.exp import SweepRunner, get_evaluator, workload_points
from repro.exp.runner import _eval_static


def test_static_evaluator_is_registered():
    registration = get_evaluator("static")
    assert registration.name == "static"
    # shares the workload evaluator's program-text hook, so cache keys
    # roll when a workload's source changes
    assert registration.program_text is not None


def test_workload_points_evaluator_parameter():
    points = workload_points(["saxpy"], tiles=(1, 2), evaluator="static")
    assert len(points) == 2
    assert all(p["evaluator"] == "static" for p in points)
    default = workload_points(["saxpy"], tiles=(1,))
    assert default[0]["evaluator"] == "workload"


def test_static_point_shape():
    value = _eval_static({"evaluator": "static", "workload": "saxpy",
                          "tiles": 2, "scale": 1, "engine": "event"})
    assert value["engine"] == "static"
    assert value["workload"] == "saxpy"
    assert value["tiles"] == 2
    assert value["cycles"] > 0
    assert value["correct"] is None  # nothing ran, nothing to check
    prediction = value["prediction"]
    assert prediction["schema"] == 1
    assert prediction["predicted_cycles"] == value["cycles"]
    assert prediction["bottlenecks"]
    assert value["top_bottleneck"]


def test_static_sweep_through_runner():
    points = workload_points(["saxpy", "matrix_add"], tiles=(1, 4),
                             evaluator="static")
    result = SweepRunner(jobs=1).run(points)
    assert result.summary["errors"] == 0
    cycles = [record["value"]["cycles"] for record in result.records]
    assert all(c > 0 for c in cycles)


def test_static_sweep_is_deterministic():
    points = workload_points(["fibonacci"], tiles=(2,), scales=2,
                             evaluator="static")
    first = SweepRunner(jobs=1).run(points)
    second = SweepRunner(jobs=1).run(points)
    assert first.values == second.values


def test_static_and_workload_points_share_grid_shape():
    """The two evaluators line up record-for-record over one grid."""
    sim = workload_points(["saxpy"], tiles=(1, 2), scales=1)
    static = workload_points(["saxpy"], tiles=(1, 2), scales=1,
                             evaluator="static")
    for a, b in zip(sim, static):
        assert {k: v for k, v in a.items() if k != "evaluator"} == \
            {k: v for k, v in b.items() if k != "evaluator"}


def test_static_records_do_not_depend_on_evaluation_order(monkeypatch):
    """The per-process model memo is keyed by program only, so the model
    must derive what depends on the configuration (cache line size here)
    per prediction — not keep what its first point happened to carry."""
    from repro.exp import runner

    default = {"evaluator": "static", "workload": "saxpy", "tiles": 2,
               "scale": 4}
    specs = {"default": default,
             "wide": dict(default, overrides={"cache": {"line_bytes": 128}})}
    runs = []
    for order in (("default", "wide"), ("wide", "default")):
        monkeypatch.setattr(runner, "_STATIC_MODELS", {})
        runs.append({name: _eval_static(specs[name]) for name in order})
    assert runs[0] == runs[1]
    assert runs[0]["default"]["cycles"] != runs[0]["wide"]["cycles"]


def test_predict_honours_the_config_it_is_given():
    from repro.accel import AcceleratorConfig
    from repro.analysis import PerfModel
    from repro.memory.cache import CacheParams
    from repro.workloads import REGISTRY

    workload = REGISTRY.get("saxpy")
    shared = PerfModel(workload.fresh_module())
    for config in (AcceleratorConfig(cache=CacheParams(line_bytes=128)),
                   AcceleratorConfig(latencies={"alu": 3, "mul": 9})):
        fresh = PerfModel(workload.fresh_module(), config=config)
        assert shared.predict(config=config, size=256).as_dict() == \
            fresh.predict(config=config, size=256).as_dict()
        assert shared.predict(config=config, size=256).cycles != \
            shared.predict(size=256).cycles
