"""Tests for the data box, arbiters/demux and the scratchpad."""

import pytest

from repro.memory import (
    DataBox,
    Demux,
    MainMemory,
    MemRequest,
    MemResponse,
    RoundRobinArbiter,
    Scratchpad,
    tree_levels,
)
from repro.memory.databox import MemTag
from repro.sim import Simulator


class TestTreeLevels:
    def test_depth_grows_with_fan_in(self):
        assert tree_levels(2) == 1
        assert tree_levels(4) == 1
        assert tree_levels(5) == 2
        assert tree_levels(16) == 2
        assert tree_levels(17) == 3


class TestArbiter:
    def test_round_robin_fairness(self):
        sim = Simulator()
        inputs = [sim.add_channel(f"in{i}", 4) for i in range(3)]
        out = sim.add_channel("out", 8)
        sim.add_component(RoundRobinArbiter("arb", inputs, out))
        for i, ch in enumerate(inputs):
            ch.push(("a", i))
            ch.commit()
            ch.push(("b", i))
        got = []
        for _ in range(40):
            if out.can_pop():
                got.append(out.pop())
            sim.tick()
        sources = [src for _, src in got[:3]]
        assert sorted(sources) == [0, 1, 2]  # one grant each before repeats

    def test_arbiter_requires_inputs(self):
        from repro.errors import SimulationError

        sim = Simulator()
        out = sim.add_channel("out", 2)
        with pytest.raises(SimulationError):
            RoundRobinArbiter("arb", [], out)


class TestDemux:
    def test_routes_by_port(self):
        sim = Simulator()
        inp = sim.add_channel("in", 4)
        outs = [sim.add_channel(f"o{i}", 4) for i in range(3)]
        sim.add_component(Demux("d", inp, outs))
        for port in (2, 0, 1):
            inp.push(MemResponse(tag=port, port=port))
            inp.commit()
            for _ in range(6):
                sim.tick()
        for i, out in enumerate(outs):
            assert out.can_pop()
            assert out.pop().tag == i

    def test_bad_port_raises(self):
        from repro.errors import SimulationError

        sim = Simulator()
        inp = sim.add_channel("in", 4)
        outs = [sim.add_channel("o0", 4)]
        sim.add_component(Demux("d", inp, outs))
        inp.push(MemResponse(tag=0, port=7))
        inp.commit()
        with pytest.raises(SimulationError, match="bad port"):
            for _ in range(10):
                sim.tick()


class TestDataBox:
    def make_box(self, entries=2, ports=2):
        sim = Simulator()
        to_cache = sim.add_channel("to", 4)
        from_cache = sim.add_channel("from", 4)
        box = DataBox(sim, "box", num_ports=ports,
                      to_cache=to_cache, from_cache=from_cache,
                      entries=entries)
        return sim, box, to_cache, from_cache

    def request(self, tile, node=0):
        return MemRequest(tag=MemTag(0, tile, 0, node), op="load",
                          addr=64, size=4)

    def test_merges_tiles_and_routes_responses_back(self):
        sim, box, to_cache, from_cache = self.make_box()
        box.tile_request[0].push(self.request(0))
        box.tile_request[1].push(self.request(1))
        for ch in box.tile_request:
            ch.commit()
        seen = []
        for _ in range(10):
            sim.tick()
            if to_cache.can_pop():
                req = to_cache.pop()
                seen.append(req.tag.tile)
                from_cache.push(MemResponse(tag=req.tag, data=1))
        for _ in range(10):
            sim.tick()
        assert sorted(seen) == [0, 1]
        assert box.tile_response[0].can_pop()
        assert box.tile_response[1].can_pop()
        assert box.tile_response[0].pop().tag.tile == 0

    def test_allocator_table_bounds_outstanding(self):
        sim, box, to_cache, from_cache = self.make_box(entries=1)
        box.tile_request[0].push(self.request(0, node=0))
        box.tile_request[0].commit()
        box.tile_request[1].push(self.request(1, node=1))
        box.tile_request[1].commit()
        forwarded = []
        for _ in range(20):
            sim.tick()
            if to_cache.can_pop():
                forwarded.append(to_cache.pop())
        assert len(forwarded) == 1  # second op held: one staging entry
        # release the entry and the second op proceeds
        from_cache.push(MemResponse(tag=forwarded[0].tag, data=0))
        from_cache.commit()
        for _ in range(20):
            sim.tick()
            if to_cache.can_pop():
                forwarded.append(to_cache.pop())
        assert len(forwarded) == 2
        assert box.stats()["peak_outstanding"] == 1


class TestScratchpad:
    def test_load_store_roundtrip_with_fixed_latency(self):
        sim = Simulator()
        mem = MainMemory(1 << 12)
        req = sim.add_channel("rq", 4)
        resp = sim.add_channel("rs", 4)
        sim.add_component(Scratchpad("sp", mem, req, resp, latency=2))
        addr = mem.alloc(8)
        req.push(MemRequest(tag="w", op="store", addr=addr, size=4, data=77))
        req.commit()
        req.push(MemRequest(tag="r", op="load", addr=addr, size=4))
        got = []
        issue_cycle = sim.cycle
        for _ in range(20):
            sim.tick()
            if resp.can_pop():
                got.append((sim.cycle, resp.pop()))
        assert [m.tag for _, m in got] == ["w", "r"]
        assert got[1][1].data == 77
        assert got[0][0] - issue_cycle >= 2  # latency respected
