"""The data box (paper Fig 8): per-task-unit memory front end.

One block per task unit that (i) arbitrates among the memory operations
of its tiles (the in-arbiter tree), (ii) bounds outstanding operations
with an allocator table of staging buffers, and (iii) routes responses
back to the requesting tile (the out-demux network). Grouping the
alignment/staging logic per unit instead of per memory op is the paper's
stated resource optimisation.

Implemented as a single component — request and response each cross the
box in one cycle, which is what a combined arbiter + staging-table block
costs in hardware at these fan-ins.
"""

from __future__ import annotations

from typing import List

from repro.memory.messages import Fields
from repro.sim import (
    NEVER,
    OBS_BUSY,
    OBS_IDLE,
    OBS_STALL_IN,
    OBS_STALL_OUT,
    Channel,
    Component,
    Simulator,
)


class MemTag(Fields):
    """Routing tag carried through the memory network: the issuing unit,
    tile, instance and dataflow node (the out-demux network routes on
    ``tile``). Allocated per memory node issue, never mutated once built,
    and hashed by its fields."""

    __slots__ = ("unit", "tile", "instance", "node")

    def __init__(self, unit: int, tile: int, instance: int, node: int):
        self.unit = unit
        self.tile = tile
        self.instance = instance
        self.node = node

    def __hash__(self):
        return hash(self._fields())


class DataBox(Component):
    """Wires one task unit's tiles to the shared memory network.

    Exposes ``tile_request[i]`` / ``tile_response[i]`` channel pairs to the
    TXUs and one request/response pair toward the global cache arbiter.
    """

    def __init__(self, sim: Simulator, name: str, num_ports: int,
                 to_cache: Channel, from_cache: Channel, entries: int = 8):
        super().__init__(name)
        self.to_cache = to_cache
        self.from_cache = from_cache
        self.entries = entries

        self.tile_request: List[Channel] = [
            sim.add_channel(f"{name}.req{i}", capacity=2)
            for i in range(num_ports)
        ]
        self.tile_response: List[Channel] = [
            sim.add_channel(f"{name}.resp{i}", capacity=2)
            for i in range(num_ports)
        ]
        sim.add_component(self)

        self._rr = 0
        self._outstanding = 0
        self.peak_outstanding = 0
        #: stalls on a full allocator table: the cycles of the closed spans,
        #: and the first cycle of the open one (the grant that fills the
        #: table opens it, the response that frees an entry closes it)
        self._stalled_closed = 0
        self._full_since = 0

    def tick(self, cycle: int):
        # response path: free a staging entry, route back by tile tag
        if self.from_cache.can_pop():
            resp = self.from_cache.peek()
            out = self.tile_response[resp.tag.tile]
            if out.can_push():
                self.from_cache.pop()
                out.push(resp)
                if self._outstanding == self.entries:
                    self._stalled_closed += cycle - self._full_since
                self._outstanding -= 1

        # request path: round-robin grant, bounded by the allocator table
        if self._outstanding < self.entries and self.to_cache.can_push():
            idx = self._rr
            for _ in range(len(self.tile_request)):
                source = self.tile_request[idx]
                idx = idx + 1 if idx + 1 < len(self.tile_request) else 0
                if source.can_pop():
                    request = source.pop()
                    self.to_cache.push(request)
                    self._rr = idx
                    self._outstanding += 1
                    if self._outstanding == self.entries:
                        self._full_since = cycle + 1
                    if self._outstanding > self.peak_outstanding:
                        self.peak_outstanding = self._outstanding
                    break

    def ports(self):
        return (tuple(self.tile_request) + (self.from_cache,),
                tuple(self.tile_response) + (self.to_cache,))

    def next_wake(self, cycle):
        # purely channel-driven: every stall resolves via a pop/push on a
        # sensitivity channel, and our own movement this tick re-wakes us
        return NEVER

    def obs_classify(self, cycle):
        pending = False
        for ch in self.tile_request:
            if ch.can_pop():
                pending = True
                break
        if pending and self._outstanding >= self.entries:
            # allocator table full: input blocked until responses drain
            return OBS_STALL_IN, "allocator-full"
        if pending and not self.to_cache.can_push():
            return OBS_STALL_OUT, "cache-backpressure"
        if self.from_cache.can_pop() and not \
                self.tile_response[self.from_cache.peek().tag.tile].can_push():
            return OBS_STALL_OUT, "tile-backpressure"
        if self._outstanding or pending:
            return OBS_BUSY, None
        return OBS_IDLE, None

    def stats(self):
        stalled = self._stalled_closed
        if self._outstanding == self.entries:
            # the open span: empty when the grant that opened it came in
            # the cycle an exception cut short
            stalled += max(0, self.sim.cycle - self._full_since)
        return {
            "forwarded": self.to_cache.total_pushed,
            "peak_outstanding": self.peak_outstanding,
            "stalled_cycles": stalled,
        }
