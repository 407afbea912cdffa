"""The stall classification of TXU tiles and task units, pinned to the
loops it was first written as: seeded random tile and unit states, each
classified by the methods and by the reference copies below."""

import random
from collections import deque
from types import SimpleNamespace

from repro.sim.component import OBS_BUSY, OBS_IDLE, OBS_STALL_IN, OBS_STALL_OUT
from repro.task.task_unit import TaskUnit
from repro.task.txu import (
    AWAIT_CALL,
    AWAIT_MEM,
    DONE,
    EPILOGUE_ISSUE,
    EPILOGUE_WAIT,
    PARKED,
    RUN,
    TXUTile,
)

# -- the reference: the classification as first written, verbatim -----------


def reference_tile(self, cycle):
    if not self.instances:
        return OBS_IDLE, None
    if self._fired:
        return OBS_BUSY, None
    for inst in self.instances:
        for done in inst.node_done:
            if cycle < done < AWAIT_MEM:
                return OBS_BUSY, "execute"
    if self._spawn_blocked:
        return OBS_STALL_OUT, "spawn-backpressure"
    if self._mem_blocked:
        return OBS_STALL_OUT, "mem-backpressure"
    if any(AWAIT_MEM in inst.node_done
           or inst.phase in (EPILOGUE_ISSUE, EPILOGUE_WAIT)
           for inst in self.instances):
        return OBS_STALL_IN, "memory"
    if any(AWAIT_CALL in inst.node_done for inst in self.instances):
        return OBS_STALL_IN, "call-join"
    return OBS_BUSY, None


def reference_unit(self, cycle):
    tile_states = [reference_tile(tile, cycle) for tile in self.tiles]
    if any(state == OBS_BUSY for state, _ in tile_states):
        return OBS_BUSY, None
    if self._spawn_outbuf and not self.spawn_out.can_push():
        return OBS_STALL_OUT, "spawn-network"
    if self._join_outbuf and not self.join_out.can_push():
        return OBS_STALL_OUT, "join-network"
    stalls = [(state, reason) for state, reason in tile_states
              if state in (OBS_STALL_IN, OBS_STALL_OUT)]
    if stalls:
        # the unit stalls for whatever most of its tiles stall for
        counts = {}
        for pair in stalls:
            counts[pair] = counts.get(pair, 0) + 1
        return max(counts, key=counts.get)
    if self.queue.has_ready():
        if any(tile.has_capacity() for tile in self.tiles):
            return OBS_BUSY, "dispatch"
        return OBS_STALL_IN, "tiles-full"
    if self._join_ready or self._spawn_outbuf or self._join_outbuf:
        return OBS_BUSY, None
    if self.queue.occupancy > 0:
        return OBS_STALL_IN, "sync-wait"
    return OBS_IDLE, None


def reference_children(self, cycle):
    return [(tile.obs_name, *reference_tile(tile, cycle)) for tile in self.tiles]


# -- generated states ------------------------------------------------------------


def _node_done(rng, cycle):
    """PARKED, AWAIT_MEM, AWAIT_CALL, or a cycle before, at or after ``cycle``."""
    return rng.choice([PARKED, AWAIT_MEM, AWAIT_CALL, cycle - rng.randint(1, 5),
                       cycle, cycle + rng.randint(1, 5)])


def _tile(rng, cycle, index):
    tile = object.__new__(TXUTile)
    tile.obs_name = f"unit.tile{index}"
    tile.max_inflight = rng.randint(0, 3)  # 0: "tiles-full" with every tile idle
    tile.instances = [
        SimpleNamespace(phase=rng.choice([RUN, EPILOGUE_ISSUE, EPILOGUE_WAIT, DONE]),
                        node_done=[_node_done(rng, cycle)
                                   for _ in range(rng.randint(0, 6))])
        for _ in range(rng.choice([0, 0, 1, 1, 2, 3]))]
    tile._fired = {("n", 0)} if rng.random() < 0.2 else set()
    tile._spawn_blocked = rng.random() < 0.3
    tile._mem_blocked = rng.random() < 0.3
    tile._mem_issued_this_cycle = rng.random() < 0.3
    return tile


def _unit(rng, cycle):
    unit = object.__new__(TaskUnit)
    unit.tiles = [_tile(rng, cycle, i) for i in range(rng.randint(1, 4))]
    unit._spawn_outbuf = deque(range(rng.choice([0, 0, 1, 4])))
    unit._join_outbuf = deque(range(rng.choice([0, 0, 1])))
    unit._join_ready = deque(range(rng.choice([0, 0, 1])))
    room = {"spawn": rng.random() < 0.5, "join": rng.random() < 0.5}
    unit.spawn_out = SimpleNamespace(can_push=lambda: room["spawn"])
    unit.join_out = SimpleNamespace(can_push=lambda: room["join"])
    ready = rng.random() < 0.3
    unit.queue = SimpleNamespace(has_ready=lambda: ready,
                                 occupancy=rng.choice([0, 0, 1, 5]))
    unit._obs_tiles, unit._obs_cycle = [], None
    return unit


def test_classification_matches_the_reference_loops():
    rng = random.Random(40)
    seen = set()
    for _ in range(4000):
        cycle = rng.randint(0, 1000)
        unit = _unit(rng, cycle)
        for tile in unit.tiles:
            assert tile.obs_classify(cycle) == reference_tile(tile, cycle)
        expected = reference_unit(unit, cycle), reference_children(unit, cycle)
        # a sample: obs_children right after obs_classify of the same cycle
        assert (unit.obs_classify(cycle), unit.obs_children(cycle)) == expected
        # ... and obs_children on its own (a stall post-mortem's order)
        assert unit.obs_children(cycle) == expected[1]
        unit.obs_classify(cycle - 1)  # a stale classification is not reused
        assert unit.obs_children(cycle) == expected[1]
        seen.add(expected[0])
        seen.update((state, reason) for _, state, reason in expected[1])
    # the generated states reach every reason the unit and its tiles give
    assert {reason for _, reason in seen} == {
        None, "execute", "spawn-backpressure", "mem-backpressure", "memory",
        "call-join", "spawn-network", "join-network", "dispatch", "tiles-full",
        "sync-wait"}
