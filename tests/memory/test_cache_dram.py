"""Tests for the cache + DRAM timing models."""

import pytest

from repro.errors import ConfigError
from repro.memory import (
    Cache,
    CacheParams,
    DRAMModel,
    MainMemory,
    MemRequest,
)
from repro.sim import Simulator


class CacheHarness:
    """A simulator wiring request -> cache -> DRAM and collecting responses."""

    def __init__(self, params=None, dram_latency=40):
        self.sim = Simulator()
        self.mem = MainMemory(1 << 20)
        self.req = self.sim.add_channel("req", capacity=8)
        self.resp = self.sim.add_channel("resp", capacity=8)
        dram_req = self.sim.add_channel("dram_req", capacity=4)
        dram_resp = self.sim.add_channel("dram_resp", capacity=4)
        self.cache = self.sim.add_component(Cache(
            "L1", params or CacheParams(), self.mem,
            self.req, self.resp, dram_req, dram_resp))
        self.dram = self.sim.add_component(DRAMModel(
            "DRAM", dram_req, dram_resp, latency=dram_latency))
        self.received = []

    def run_requests(self, requests, max_cycles=100000):
        pending = list(requests)
        expected = len(pending)

        def pump():
            if pending and self.req.can_push():
                self.req.push(pending.pop(0))
            if self.resp.can_pop():
                self.received.append((self.sim.cycle, self.resp.pop()))

        start = self.sim.cycle
        while len(self.received) < expected:
            pump()
            self.sim.tick()
            assert self.sim.cycle - start < max_cycles, "harness timeout"
        return self.sim.cycle - start


def load(addr, tag=0, size=4):
    return MemRequest(tag=tag, op="load", addr=addr, size=size)


def store(addr, value, tag=0, size=4):
    return MemRequest(tag=tag, op="store", addr=addr, size=size, data=value)


class TestCacheFunctional:
    def test_store_then_load_returns_value(self):
        h = CacheHarness()
        addr = h.mem.alloc(4)
        h.run_requests([store(addr, 99, tag=1), load(addr, tag=2)])
        assert h.received[-1][1].data == 99

    def test_loads_see_backing_data(self):
        h = CacheHarness()
        addr = h.mem.alloc_array_type = h.mem.alloc(4)
        h.mem.write_int(addr, 4, 1234)
        h.run_requests([load(addr, tag=7)])
        assert h.received[0][1].data == 1234

    def test_subword_store_does_not_clobber_neighbours(self):
        h = CacheHarness()
        addr = h.mem.alloc(8)
        h.mem.write_int(addr, 4, 0x11111111)
        h.mem.write_int(addr + 4, 4, 0x22222222)
        h.run_requests([store(addr + 4, 0xAB, size=1)])
        assert h.mem.read_int(addr, 4, signed=False) == 0x11111111
        assert h.mem.read_int(addr + 4, 4, signed=False) == 0x222222AB


class TestCacheTiming:
    def test_miss_then_hit_latency_gap(self):
        h = CacheHarness(dram_latency=40)
        addr = h.mem.alloc(64)
        h.run_requests([load(addr, tag=1)])
        miss_cycle = h.received[0][0]
        h.received.clear()
        h.run_requests([load(addr, tag=2)])
        hit_cycle = h.received[0][0] - miss_cycle
        assert miss_cycle > 40          # includes the DRAM round trip
        assert hit_cycle < 10           # served from the array

    def test_same_line_requests_merge_in_mshr(self):
        params = CacheParams(line_bytes=32)
        h = CacheHarness(params=params, dram_latency=40)
        base = h.mem.alloc(64, align=32)
        cycles = h.run_requests([load(base, tag=1), load(base + 4, tag=2),
                                 load(base + 8, tag=3)])
        # one fill serves all three: far less than 3 full round trips
        assert cycles < 2 * 40
        assert h.cache.misses == 3
        assert h.dram.stats()["accesses"] == 1

    def test_mshr_limit_serialises_independent_misses(self):
        params = CacheParams(mshr_count=1, line_bytes=32)
        h = CacheHarness(params=params, dram_latency=40)
        a = h.mem.alloc(32, align=32)
        b = h.mem.alloc(4096, align=32)  # different line, different set
        serial = h.run_requests([load(a, tag=1), load(b, tag=2)])
        params2 = CacheParams(mshr_count=4, line_bytes=32)
        h2 = CacheHarness(params=params2, dram_latency=40)
        a2 = h2.mem.alloc(32, align=32)
        b2 = h2.mem.alloc(4096, align=32)
        overlapped = h2.run_requests([load(a2, tag=1), load(b2, tag=2)])
        assert serial > overlapped  # MSHRs overlap the two round trips

    def test_eviction_on_conflict(self):
        params = CacheParams(size_bytes=256, line_bytes=32, associativity=1)
        h = CacheHarness(params=params)
        sets = params.sets
        stride = sets * params.line_bytes
        a = h.mem.alloc(stride * 3, align=32)
        conflicting = [load(a, tag=1), load(a + stride, tag=2), load(a, tag=3)]
        h.run_requests(conflicting)
        assert h.cache.evictions >= 1
        assert h.cache.misses == 3  # the third access misses again

    def test_dirty_eviction_writes_back(self):
        params = CacheParams(size_bytes=256, line_bytes=32, associativity=1)
        h = CacheHarness(params=params)
        stride = params.sets * params.line_bytes
        a = h.mem.alloc(stride * 3, align=32)
        h.run_requests([store(a, 5, tag=1), load(a + stride, tag=2)])
        # run a few extra cycles so the writeback drains
        for _ in range(100):
            h.sim.tick()
        assert h.cache.writebacks >= 1

    def test_hit_rate_statistic(self):
        h = CacheHarness()
        addr = h.mem.alloc(4)
        h.run_requests([load(addr, tag=0)])     # fill the line first
        h.received.clear()
        h.run_requests([load(addr, tag=i) for i in range(1, 10)])
        stats = h.cache.stats()
        assert stats["hits"] == 9
        assert stats["misses"] == 1
        assert 0.89 < stats["hit_rate"] < 0.91


class TestCacheParams:
    def test_bad_geometry_rejected(self):
        with pytest.raises(ConfigError):
            CacheParams(size_bytes=1000, line_bytes=32, associativity=4)

    @pytest.mark.parametrize("field, value", [
        ("size_bytes", 0), ("line_bytes", 0), ("associativity", 0),
        ("mshr_count", 0), ("hit_latency", -1), ("subword_penalty", -1),
        ("hit_latency", 1.5), ("hit_latency", True), ("mshr_count", 2.0),
        ("size_bytes", 16384.0), ("subword_penalty", 0.5), ("banks", True),
    ])
    def test_out_of_range_field_rejected(self, field, value):
        """Fail closed at construction: a zero divisor, an L1 with no sets
        or no MSHR must not reach the first access (or a deadlock), and a
        size that is no integer (a float, a bool) must not reach the
        simulator or the RTL."""
        with pytest.raises(ConfigError, match=field):
            CacheParams(**{field: value})

    def test_fresh_cache_holds_no_sets(self):
        h = CacheHarness()
        assert h.cache._sets == {}
        addr = h.mem.alloc(4)
        h.run_requests([load(addr, tag=1), load(addr, tag=2)])
        assert len(h.cache._sets) == 1

    def test_paper_configuration(self):
        p = CacheParams()  # the paper's 16K L1
        assert p.size_bytes == 16 * 1024
        assert p.sets * p.line_bytes * p.associativity == p.size_bytes


class TestDRAM:
    def test_fixed_latency(self):
        sim = Simulator()
        req = sim.add_channel("rq", 2)
        resp = sim.add_channel("rs", 2)
        sim.add_component(DRAMModel("d", req, resp, latency=40))
        req.push(MemRequest(tag=9, op="load", addr=0, size=32))
        issued = sim.cycle
        got = []
        while not got:
            if resp.can_pop():
                got.append((sim.cycle, resp.pop()))
            sim.tick()
            assert sim.cycle < 200
        latency = got[0][0] - issued
        assert 40 <= latency <= 45  # latency plus handshake stages

    def test_pipelined_throughput(self):
        """Back-to-back requests complete ~1/cycle after the first."""
        sim = Simulator()
        req = sim.add_channel("rq", 8)
        resp = sim.add_channel("rs", 8)
        sim.add_component(DRAMModel("d", req, resp, latency=40))
        sent = 0
        got = []
        while len(got) < 8:
            if sent < 8 and req.can_push():
                req.push(MemRequest(tag=sent, op="load", addr=0, size=32))
                sent += 1
            if resp.can_pop():
                got.append(sim.cycle)
            sim.tick()
            assert sim.cycle < 500
        assert got[-1] - got[0] <= 16  # near-back-to-back completions


class TestWritebackProtocol:
    """Regression: DRAM must not respond to posted writes — a writeback
    echoed back as a 'fill' would spuriously re-install the evicted line
    (and evict something else)."""

    def test_dirty_eviction_does_not_reinstall_victim(self):
        params = CacheParams(size_bytes=256, line_bytes=32, associativity=1)
        h = CacheHarness(params=params)
        stride = params.sets * params.line_bytes
        a = h.mem.alloc(stride * 3, align=32)
        # dirty line A, then conflict-load B (evicts A, writes A back)
        h.run_requests([store(a, 5, tag=1), load(a + stride, tag=2)])
        for _ in range(200):
            h.sim.tick()
        # B must still be resident: a re-load of B hits
        h.received.clear()
        hits_before = h.cache.hits
        h.run_requests([load(a + stride, tag=3)])
        assert h.cache.hits == hits_before + 1

    def test_write_requests_produce_no_dram_response(self):
        from repro.memory import DRAMModel, MemRequest
        from repro.sim import Simulator

        sim = Simulator()
        req = sim.add_channel("rq", 2)
        resp = sim.add_channel("rs", 2)
        sim.add_component(DRAMModel("d", req, resp, latency=5))
        req.push(MemRequest(tag=1, op="store", addr=0, size=32, data=0))
        req.commit()
        for _ in range(40):
            sim.tick()
        assert not resp.can_pop()

    def test_reads_after_writes_still_respond(self):
        from repro.memory import DRAMModel, MemRequest
        from repro.sim import Simulator

        sim = Simulator()
        req = sim.add_channel("rq", 4)
        resp = sim.add_channel("rs", 4)
        sim.add_component(DRAMModel("d", req, resp, latency=5))
        req.push(MemRequest(tag="w", op="store", addr=0, size=32, data=0))
        req.commit()
        req.push(MemRequest(tag="r", op="load", addr=0, size=32))
        req.commit()
        got = []
        for _ in range(60):
            sim.tick()
            if resp.can_pop():
                got.append(resp.pop().tag)
        assert got == ["r"]
