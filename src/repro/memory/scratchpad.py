"""Scratchpad: a private, fixed-latency memory (the data box's second
backend in Fig 8). TAPAS evaluates the cache model only; the scratchpad is
provided for completeness and for the ablation benches."""

from __future__ import annotations

from collections import deque
from typing import Deque, Tuple

from repro.memory.backing import MainMemory
from repro.memory.messages import LOAD, MemResponse
from repro.sim import OBS_BUSY, OBS_IDLE, OBS_STALL_OUT, Channel, Component, pipe_wake


class Scratchpad(Component):
    """Single-ported SRAM with deterministic access latency."""

    def __init__(self, name: str, backing: MainMemory,
                 request_in: Channel, response_out: Channel,
                 latency: int = 1):
        super().__init__(name)
        self.backing = backing
        self.request_in = request_in
        self.response_out = response_out
        self.latency = latency
        self._pipe: Deque[Tuple[int, MemResponse]] = deque()

    def tick(self, cycle: int):
        if (self._pipe and self._pipe[0][0] <= cycle
                and self.response_out.can_push()):
            self.response_out.push(self._pipe.popleft()[1])

        if self.request_in.can_pop():
            req = self.request_in.pop()
            if req.op == LOAD:
                data = self.backing.read_int(req.addr, req.size, signed=False)
            else:
                self.backing.write_int(req.addr, req.size, req.data or 0)
                data = None
            self._pipe.append(
                (cycle + self.latency, MemResponse(req.tag, data, port=req.port)))

    def ports(self):
        return ((self.request_in,), (self.response_out,))

    def next_wake(self, cycle):
        # constant latency keeps _pipe sorted: the head is the next timer
        return pipe_wake(self._pipe, cycle)

    def is_busy(self):
        return bool(self._pipe)

    def obs_classify(self, cycle):
        if (self._pipe and self._pipe[0][0] <= cycle
                and not self.response_out.can_push()):
            return OBS_STALL_OUT, "resp-backpressure"
        if self._pipe or self.request_in.can_pop():
            return OBS_BUSY, None
        return OBS_IDLE, None

    def stats(self):
        return {"accesses": self.request_in.total_popped}
