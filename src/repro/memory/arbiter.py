"""Arbitration and routing networks (the Fig 8 in-arbiter / out-demux).

The in-arbiter is a round-robin tree merging N request streams into one;
its pipeline latency grows with tree depth (``levels`` in the paper's
parameter list). The out-demux routes responses back by port index.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, List, Tuple

from repro.errors import SimulationError
from repro.sim import OBS_BUSY, OBS_IDLE, OBS_STALL_OUT, Channel, Component, pipe_wake


def tree_levels(fan_in: int) -> int:
    """Pipeline depth of an arbitration tree over ``fan_in`` inputs.

    A 4-ary mux tree comfortably closes timing at the paper's 150-300 MHz
    clocks, so depth grows with log4 of the fan-in: one register stage up
    to 4 inputs, two up to 16, and so on.
    """
    return max(1, math.ceil(math.log(max(2, fan_in), 4)))


class RoundRobinArbiter(Component):
    """N-to-1 round-robin arbiter with tree pipeline latency.

    Grants one input per cycle; the winning message emerges on the output
    ``levels`` cycles later (registered tree stages).
    """

    def __init__(self, name: str, inputs: List[Channel], output: Channel,
                 levels: int = None):
        super().__init__(name)
        if not inputs:
            raise SimulationError(f"arbiter {name}: needs at least one input")
        self.inputs = inputs
        self.output = output
        self.levels = tree_levels(len(inputs)) if levels is None else max(0, levels)
        self._next = 0  # round-robin pointer
        self._pipe: Deque[Tuple[int, object]] = deque()

    def tick(self, cycle: int):
        # drain the pipeline head into the output
        if self._pipe and self._pipe[0][0] <= cycle and self.output.can_push():
            self.output.push(self._pipe.popleft()[1])

        # grant one requester round-robin; bound in-flight to tree depth+1
        if len(self._pipe) <= self.levels:
            idx = self._next
            for _ in range(len(self.inputs)):
                source = self.inputs[idx]
                idx = idx + 1 if idx + 1 < len(self.inputs) else 0
                if source.can_pop():
                    msg = source.pop()
                    self._pipe.append((cycle + self.levels, msg))
                    self._next = idx
                    break

    def ports(self):
        return (tuple(self.inputs), (self.output,))

    def next_wake(self, cycle):
        return pipe_wake(self._pipe, cycle)

    def is_busy(self):
        return bool(self._pipe)

    def obs_classify(self, cycle):
        if (self._pipe and self._pipe[0][0] <= cycle
                and not self.output.can_push()):
            return OBS_STALL_OUT, "output-backpressure"
        if self._pipe or any(ch.can_pop() for ch in self.inputs):
            return OBS_BUSY, None
        return OBS_IDLE, None

    def stats(self):
        return {"grants": sum(ch.total_popped for ch in self.inputs)}


class Demux(Component):
    """1-to-N router: forwards each message to ``outputs[port_of(msg)]``,
    by a declared key ``(field, divisor, mask)`` that the RTL tops print.
    The default ``("port", 1, -1)`` routes by ``msg.port``; a mask of -1
    leaves the field unreduced, so a stray value is a bad port."""

    def __init__(self, name: str, input_: Channel, outputs: List[Channel],
                 levels: int = None, key=("port", 1, -1)):
        super().__init__(name)
        if not outputs:
            raise SimulationError(f"demux {name}: needs at least one output")
        self.input = input_
        self.outputs = outputs
        self.levels = tree_levels(len(outputs)) if levels is None else max(0, levels)
        self.field, self.divisor, self.mask = key
        self._pipe: Deque[Tuple[int, object]] = deque()

    def port_of(self, msg) -> int:
        return getattr(msg, self.field) // self.divisor & self.mask

    def tick(self, cycle: int):
        if self._pipe and self._pipe[0][0] <= cycle:
            _, msg = self._pipe[0]
            port = self.port_of(msg)
            if port < 0 or port >= len(self.outputs):
                raise SimulationError(
                    f"demux {self.name}: bad port {port} of {len(self.outputs)}")
            out = self.outputs[port]
            if out.can_push():
                self._pipe.popleft()
                out.push(msg)

        if self.input.can_pop() and len(self._pipe) <= self.levels:
            msg = self.input.pop()
            self._pipe.append((cycle + self.levels, msg))

    def ports(self):
        return ((self.input,), tuple(self.outputs))

    def next_wake(self, cycle):
        return pipe_wake(self._pipe, cycle)

    def is_busy(self):
        return bool(self._pipe)

    def obs_classify(self, cycle):
        if self._pipe and self._pipe[0][0] <= cycle:
            port = self.port_of(self._pipe[0][1])
            if 0 <= port < len(self.outputs) and \
                    not self.outputs[port].can_push():
                return OBS_STALL_OUT, "output-backpressure"
        if self._pipe or self.input.can_pop():
            return OBS_BUSY, None
        return OBS_IDLE, None

    def stats(self):
        return {"routed": sum(ch.total_pushed for ch in self.outputs)}
