"""The task units' cycle classification as it was written before the
sampler was tuned: ``TXUTile.obs_classify`` and ``TaskUnit.obs_classify`` /
``obs_children`` copied verbatim, as functions of the object they
classify. The unit's copy classifies its tiles with the tile's copy, and
keeps its children in attributes of its own, so calling it never
disturbs what the product's pair hands over.

``tests/sim/test_obs_classify.py`` holds the product's classification to
these at every sample of instrumented runs.
"""

from repro.sim.component import OBS_BUSY, OBS_IDLE, OBS_STALL_IN, OBS_STALL_OUT
from repro.task.txu import AWAIT_CALL, AWAIT_MEM, EPILOGUE_ISSUE, EPILOGUE_WAIT


def tile_obs_classify(self, cycle: int):
    """Attribute the cycle just ticked (pure poll-time reads).

    Priority: dataflow fired or a functional unit is mid-latency ->
    busy; a spawn/call or memory issue hit backpressure this cycle ->
    stalled-on-output; otherwise every live instance is parked
    waiting on memory responses or child joins -> stalled-on-input.
    """
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


class UnitOracle:
    """``TaskUnit.obs_classify`` / ``obs_children`` of one unit, with the
    ``_obs_tiles`` / ``_obs_cycle`` they keep held here."""

    def __init__(self, unit):
        self.unit = unit
        self._obs_tiles = []
        self._obs_cycle = None

    def obs_classify(self, cycle):
        unit = self.unit
        children = self._obs_tiles = []
        self._obs_cycle = cycle
        stalls, busy = [], False
        for tile in unit.tiles:
            state, reason = tile_obs_classify(tile, cycle)
            children.append((tile.obs_name, state, reason))
            if state == OBS_BUSY:
                busy = True
            elif state != OBS_IDLE:
                stalls.append((state, reason))
        if busy:
            return OBS_BUSY, None
        if unit._spawn_outbuf and not unit.spawn_out.can_push():
            return OBS_STALL_OUT, "spawn-network"
        if unit._join_outbuf and not unit.join_out.can_push():
            return OBS_STALL_OUT, "join-network"
        if stalls:  # whatever most of its tiles stall for, the first on a tie
            return max(stalls, key=stalls.count)
        if unit.queue.has_ready():
            if any(tile.has_capacity() for tile in unit.tiles):
                return OBS_BUSY, "dispatch"
            return OBS_STALL_IN, "tiles-full"
        if unit._join_ready or unit._spawn_outbuf or unit._join_outbuf:
            return OBS_BUSY, None
        if unit.queue.occupancy > 0:
            # every live entry is suspended at a sync, waiting on children
            # executing in other units
            return OBS_STALL_IN, "sync-wait"
        return OBS_IDLE, None

    def obs_children(self, cycle):
        if self._obs_cycle != cycle:  # not preceded by obs_classify(cycle)
            self.obs_classify(cycle)
        self._obs_cycle = None
        return self._obs_tiles
