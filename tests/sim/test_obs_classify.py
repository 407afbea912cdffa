"""The task units' classification against its oracle at every sample.

``tests/oracles/classify.py`` holds ``TXUTile.obs_classify`` and
``TaskUnit.obs_classify`` / ``obs_children`` as they were written before
the sampler was tuned; every sample the observer takes of a task unit in
the dense (every cycle) and compiled (every change) runs of the
``obs_corpus`` shapes must agree with them, unit, children and tiles.
"""

import pytest

from repro.obs import Observer
from repro.sim import Trace
from repro.task.task_unit import TaskUnit
from repro.workloads import REGISTRY
from tests.oracles.classify import UnitOracle, tile_obs_classify
from tests.sim.obs_corpus import RUNS, run_id


class OracleChecked(Observer):
    """An :class:`Observer` that first holds every task unit it samples to
    the oracle."""

    def __init__(self):
        super().__init__()
        self.oracles = {}
        self.checked = 0

    def on_change(self, sim, cycle, components, channels):
        for index, unit in enumerate(sim.components):
            if components >> index & 1 and isinstance(unit, TaskUnit):
                oracle = self.oracles.setdefault(unit, UnitOracle(unit))
                assert unit.obs_classify(cycle) == oracle.obs_classify(cycle), (unit, cycle)
                assert list(unit.obs_children(cycle)) == oracle.obs_children(cycle), (unit, cycle)
                for tile in unit.tiles:
                    assert tile.obs_classify(cycle) == tile_obs_classify(tile, cycle), (tile, cycle)
                self.checked += 1
        super().on_change(sim, cycle, components, channels)


@pytest.mark.parametrize("engine", ["dense", "compiled"])
@pytest.mark.parametrize("name, scale, tiles", RUNS, ids=[run_id(*run) for run in RUNS])
def test_task_units_classify_as_the_oracle(name, scale, tiles, engine):
    workload = REGISTRY.get(name)
    observer = OracleChecked()
    result = workload.run(workload.default_config(tiles, engine=engine), scale=scale,
                          trace=Trace(enabled=True), observer=observer)
    assert result.correct
    assert result.stats["engine"].get("compiled_fallback") is None
    assert observer.checked
