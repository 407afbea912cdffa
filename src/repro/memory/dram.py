"""DRAM-over-AXI timing model.

The paper's SoC boards reach DRAM through an AXI bus; Table V pins the
round-trip at 270 ns (~40 cycles at the 150 MHz FPGA clock). This model is
timing-only — functional data lives in :class:`~repro.memory.backing.MainMemory`
and is attached by the cache.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Tuple

from repro.memory.messages import LOAD
from repro.sim import OBS_BUSY, OBS_IDLE, OBS_STALL_OUT, Channel, Component, pipe_wake

#: 270 ns at 150 MHz (Table V experimental setup)
DEFAULT_DRAM_LATENCY = 40


class DRAMModel(Component):
    """Fixed-latency, pipelined DRAM channel.

    Accepts up to one request per cycle (an AXI read/write burst) and
    returns completions in order after ``latency`` cycles, at most one
    per cycle (a shared AXI data channel).
    """

    def __init__(self, name: str, request_in: Channel, response_out: Channel,
                 latency: int = DEFAULT_DRAM_LATENCY):
        super().__init__(name)
        self.request_in = request_in
        self.response_out = response_out
        self.latency = latency
        self._in_flight: Deque[Tuple[int, object]] = deque()
        self.accesses = 0

    def tick(self, cycle: int):
        # retire finished accesses; only reads produce a response (write
        # bursts consume the channel but are posted, per AXI)
        while self._in_flight and self._in_flight[0][0] <= cycle:
            _, msg = self._in_flight[0]
            if msg.op != LOAD:
                self._in_flight.popleft()
                continue
            if not self.response_out.can_push():
                break
            self._in_flight.popleft()
            self.response_out.push(msg)
            break  # one push per channel per cycle

        # accept a new request
        if self.request_in.can_pop():
            msg = self.request_in.pop()
            self._in_flight.append((cycle + self.latency, msg))
            self.accesses += 1

    def ports(self):
        return ((self.request_in,), (self.response_out,))

    def next_wake(self, cycle):
        # deadlines are sorted (constant latency): the head is the next timer
        return pipe_wake(self._in_flight, cycle)

    def is_busy(self):
        return bool(self._in_flight)

    def obs_classify(self, cycle):
        if (self._in_flight and self._in_flight[0][0] <= cycle
                and not self.response_out.can_push()):
            return OBS_STALL_OUT, "resp-backpressure"
        if self._in_flight:
            return OBS_BUSY, None
        return OBS_IDLE, None

    def stats(self):
        return {"accesses": self.accesses}
