"""Shared L1 cache model: set-associative, write-back, MSHR-based.

The paper synthesises a 16 KB L1 shared by all task units, kept coherent
with the SoC's L2 over AXI (§III, §III-E). This model reproduces the
timing behaviour the evaluation depends on: hits pipeline at one per
cycle, misses overlap up to the MSHR count, and dirty evictions consume
AXI bandwidth. Functional data is read/written against the backing
:class:`~repro.memory.backing.MainMemory` in arrival order, so program
semantics never depend on timing.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from repro.errors import ConfigError, SimulationError, check_int
from repro.memory.backing import MainMemory
from repro.memory.messages import LOAD, MemRequest, MemResponse
from repro.sim import (
    OBS_BUSY,
    OBS_IDLE,
    OBS_STALL_IN,
    OBS_STALL_OUT,
    Channel,
    Component,
    pipe_wake,
)


@dataclass
class CacheParams:
    """Geometry and timing of the shared L1.

    ``banks`` > 1 builds a line-interleaved multi-bank L1 (total capacity
    split across banks, one request port per bank) — the paper's §VI
    future-work direction for lifting the bandwidth wall.
    """

    size_bytes: int = 16 * 1024      # the paper's 16K L1
    line_bytes: int = 32
    associativity: int = 4
    hit_latency: int = 2
    mshr_count: int = 4              # paper §VI: "limited support for
                                     # multiple outstanding cache misses"
    subword_penalty: int = 1         # staging-buffer alignment cycles
    banks: int = 1

    def __post_init__(self):
        for name, least in (("size_bytes", 1), ("line_bytes", 1),
                            ("associativity", 1), ("mshr_count", 1),
                            ("hit_latency", 0), ("subword_penalty", 0),
                            ("banks", 1)):
            check_int(f"cache {name}", getattr(self, name), least)
        if self.banks & (self.banks - 1):
            raise ConfigError("cache banks must be a power of two")
        if self.size_bytes % (self.line_bytes * self.associativity * self.banks):
            raise ConfigError("cache size must divide into banks*lines*ways")
        self.sets = self.size_bytes // (
            self.line_bytes * self.associativity * self.banks)

    def bank_params(self) -> "CacheParams":
        """Parameters of one bank slice."""
        return CacheParams(
            size_bytes=self.size_bytes // self.banks,
            line_bytes=self.line_bytes,
            associativity=self.associativity,
            hit_latency=self.hit_latency,
            mshr_count=self.mshr_count,
            subword_penalty=self.subword_penalty,
            banks=1)


@dataclass
class _Way:
    tag: int = -1
    valid: bool = False
    dirty: bool = False
    last_used: int = 0


@dataclass
class _MSHR:
    line_addr: int
    waiters: List[Tuple[MemRequest, Optional[int]]] = field(default_factory=list)


class Cache(Component):
    """The shared L1. One request port in, one response port out, plus a
    DRAM request/response pair (the AXI master)."""

    def __init__(self, name: str, params: CacheParams, backing: MainMemory,
                 request_in: Channel, response_out: Channel,
                 dram_request: Channel, dram_response: Channel,
                 index_shift: int = 0):
        super().__init__(name)
        self.params = params
        #: in a banked L1 the low line bits select the bank, so set
        #: indexing skips them (otherwise only 1/banks of the sets used)
        self.index_shift = index_shift
        self.backing = backing
        self.request_in = request_in
        self.response_out = response_out
        self.dram_request = dram_request
        self.dram_response = dram_response

        #: set index -> its ways, created at the set's first fill
        self._sets: Dict[int, List[_Way]] = {}
        self._mshrs: Dict[int, _MSHR] = {}
        self._ready_responses: Deque[Tuple[int, MemResponse]] = deque()
        self._pending_writebacks: Deque[object] = deque()
        #: why the request port stalled this cycle (obs_classify only)
        self._blocked: Optional[str] = None

        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0
        self.stores = 0
        self.loads = 0

    # -- address helpers ------------------------------------------------------

    def _set_index(self, line_addr: int) -> int:
        return (line_addr >> self.index_shift) % self.params.sets

    def _lookup(self, line_addr: int) -> Optional[_Way]:
        for way in self._sets.get(self._set_index(line_addr), ()):
            if way.valid and way.tag == line_addr:
                return way
        return None

    # -- functional access -----------------------------------------------------

    def _functional(self, req: MemRequest) -> Optional[int]:
        """Perform the data movement now; timing is layered on top."""
        if req.is_load():
            self.loads += 1
            return self.backing.read_int(req.addr, req.size, signed=False)
        self.stores += 1
        self.backing.write_int(req.addr, req.size, req.data or 0)
        return None

    # -- the clocked behaviour ---------------------------------------------

    def tick(self, cycle: int):
        self._blocked = None
        self._drain_writebacks()
        self._handle_fill(cycle)
        self._accept_request(cycle)
        self._send_response(cycle)

    def _drain_writebacks(self):
        if self._pending_writebacks and self.dram_request.can_push():
            self.dram_request.push(self._pending_writebacks.popleft())
            self.writebacks += 1

    def _handle_fill(self, cycle: int):
        if self.dram_response.can_pop():
            fill = self.dram_response.pop()
            self._apply_fill(fill, cycle)

    def _apply_fill(self, fill, cycle: int):
        """Install a popped DRAM fill (channel-free, so the compiled kernel
        calls it as it stands)."""
        line_addr = fill.tag  # we tag DRAM fills with the line address
        mshr = self._mshrs.pop(line_addr, None)
        if mshr is None:
            # a response with no MSHR would be a protocol error (e.g. a
            # writeback echoed back); never install state for it
            raise SimulationError(
                f"cache {self.name}: fill for line {line_addr} with no MSHR")
        self._install(line_addr, cycle)
        for req, data in mshr.waiters:
            latency = self.params.hit_latency + self._subword(req)
            self._ready_responses.append(
                (cycle + latency,
                 MemResponse(req.tag, data, req.port)))
        if any(not r.is_load() for r, _ in mshr.waiters):
            way = self._lookup(line_addr)
            if way:
                way.dirty = True

    def _install(self, line_addr: int, cycle: int):
        index = self._set_index(line_addr)
        ways = self._sets.get(index)
        if ways is None:
            ways = self._sets[index] = [
                _Way() for _ in range(self.params.associativity)]
        victim = None
        for way in ways:
            if not way.valid:
                victim = way
                break
        if victim is None:
            victim = min(ways, key=lambda w: w.last_used)
            self.evictions += 1
            if victim.dirty:
                # timing-only writeback of the victim line
                self._pending_writebacks.append(
                    MemRequest(victim.tag, "store",
                               victim.tag * self.params.line_bytes,
                               self.params.line_bytes))
        victim.tag = line_addr
        victim.valid = True
        victim.dirty = False
        victim.last_used = cycle

    def _subword(self, req: MemRequest) -> int:
        """Sub-word or straddling accesses pay the staging-buffer penalty
        (the Fig 8 allocator table reads aligned words and shifts)."""
        aligned = (req.size >= 4 and req.addr % 4 == 0)
        return 0 if aligned else self.params.subword_penalty

    def _accept_request(self, cycle: int):
        if self.request_in.can_pop():
            req = self.request_in.peek()
            line_addr = req.addr // self.params.line_bytes
            way = self._lookup(line_addr)
            if way is None:
                self._miss(req, line_addr)
            else:
                self.request_in.pop()
                data = self._functional(req)
                way.last_used = cycle
                if req.op != LOAD:
                    way.dirty = True
                self.hits += 1
                latency = self.params.hit_latency + self._subword(req)
                self._ready_responses.append(
                    (cycle + latency, MemResponse(req.tag, data, req.port)))

    def _miss(self, req, line_addr: int):
        mshr = self._mshrs.get(line_addr)
        if mshr is not None:
            # secondary miss: merge into the outstanding fill
            self.request_in.pop()
            data = self._functional(req)
            mshr.waiters.append((req, data))
            self.misses += 1
        elif len(self._mshrs) >= self.params.mshr_count:
            self._blocked = "mshr-full"  # structural: the request stays queued
        elif not self.dram_request.can_push():
            self._blocked = "dram-backpressure"
        else:
            self.request_in.pop()
            data = self._functional(req)
            self._mshrs[line_addr] = _MSHR(line_addr, [(req, data)])
            self.dram_request.push(
                MemRequest(line_addr, "load",
                           line_addr * self.params.line_bytes,
                           self.params.line_bytes))
            self.misses += 1

    def _send_response(self, cycle: int):
        if (self._ready_responses and self._ready_responses[0][0] <= cycle
                and self.response_out.can_push()):
            self.response_out.push(self._ready_responses.popleft()[1])

    def ports(self):
        return ((self.request_in, self.dram_response),
                (self.response_out, self.dram_request))

    def next_wake(self, cycle):
        # the only pure timer is the hit-latency countdown of the head
        # ready-response (sends are head-only and in order, so entries
        # behind it cannot act sooner even if their deadline is earlier).
        # Everything else — fills, MSHR drains, writeback retries, a
        # response we just pushed — arrives as movement on a sensitivity
        # channel, including our own pops/pushes this tick.
        return pipe_wake(self._ready_responses, cycle)

    def is_busy(self):
        return bool(self._ready_responses or self._mshrs
                    or self._pending_writebacks)

    def obs_classify(self, cycle):
        if self._blocked == "mshr-full":
            return OBS_STALL_IN, "mshr-full"
        if self._blocked == "dram-backpressure":
            return OBS_STALL_OUT, "dram-backpressure"
        if (self._ready_responses and self._ready_responses[0][0] <= cycle
                and not self.response_out.can_push()):
            return OBS_STALL_OUT, "resp-backpressure"
        if (self._mshrs or self._ready_responses or self._pending_writebacks
                or self.request_in.can_pop()):
            return OBS_BUSY, None
        return OBS_IDLE, None

    def stats(self):
        total = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hits / total if total else 0.0,
            "evictions": self.evictions,
            "writebacks": self.writebacks,
            "loads": self.loads,
            "stores": self.stores,
        }
