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

from dataclasses import dataclass
from typing import List

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


@dataclass(frozen=True)
class MemTag:
    """Routing tag carried through the memory network."""

    unit: int
    tile: int
    instance: int
    node: int


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
        self.entries = max(1, entries)

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
        self.forwarded = 0
        self.peak_outstanding = 0
        self.stalled_cycles = 0
        #: last cycle whose stalled_cycles accounting is complete — the
        #: event engine may skip ticks while the allocator table is full
        #: (state frozen), so the per-cycle counter is caught up in bulk
        self._synced_to = -1

    def _catch_up(self, through_cycle: int):
        gap = through_cycle - self._synced_to
        if gap > 0:
            if self._outstanding >= self.entries:
                self.stalled_cycles += gap
            self._synced_to = through_cycle

    def tick(self, cycle: int):
        self._catch_up(cycle - 1)
        self._synced_to = cycle
        # response path: free a staging entry, route back by tile tag
        if self.from_cache.can_pop():
            resp = self.from_cache.peek()
            out = self.tile_response[resp.tag.tile]
            if out.can_push():
                self.from_cache.pop()
                out.push(resp)
                self._outstanding -= 1

        # request path: round-robin grant, bounded by the allocator table
        if self._outstanding >= self.entries:
            self.stalled_cycles += 1
        elif self.to_cache.can_push():
            idx = self._rr
            for _ in range(len(self.tile_request)):
                source = self.tile_request[idx]
                idx = idx + 1 if idx + 1 < len(self.tile_request) else 0
                if source.can_pop():
                    request = source.pop()
                    self.to_cache.push(request)
                    self._rr = idx
                    self._outstanding += 1
                    self.forwarded += 1
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
        pending = any(ch.can_pop() for ch in self.tile_request)
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
        if self.sim is not None:
            self._catch_up(self.sim.cycle - 1)
        return {
            "forwarded": self.forwarded,
            "peak_outstanding": self.peak_outstanding,
            "stalled_cycles": self.stalled_cycles,
        }
