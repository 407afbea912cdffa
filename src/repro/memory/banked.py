"""Banked shared-L1 memory system (paper §VI future work).

The evaluated TAPAS system shares a single-ported L1 among all task
units, which is exactly where its memory-bound benchmarks saturate
(Fig 15/16 and the paper's own §VI: "to compete against a multicore
processor we need to improve the overall cache hierarchy, both bandwidth
and latency"). This module builds the natural next step: a
line-interleaved multi-bank L1 where bank ``b`` owns the lines with
``line_addr % banks == b``, giving up to ``banks`` hits per cycle.

Topology per request:  unit -> bank router (demux by address)
                            -> per-bank arbiter over units -> bank cache
and per response:      bank cache -> per-bank demux by unit
                            -> per-unit merge arbiter -> unit.
All banks share one AXI DRAM channel.
"""

from __future__ import annotations

from typing import List

from repro.memory.arbiter import Demux, RoundRobinArbiter
from repro.memory.backing import MainMemory
from repro.memory.cache import Cache, CacheParams
from repro.memory.dram import DRAMModel
from repro.sim import Channel, Simulator


class BankedMemorySystem:
    """Elaborates banks, routers and the shared DRAM into a simulator.

    Exposes ``unit_request[i]`` / ``unit_response[i]`` — the same
    interface the single-cache path offers — plus ``caches`` for stats.
    """

    def __init__(self, sim: Simulator, params: CacheParams,
                 memory: MainMemory, num_units: int, dram_latency: int):
        self.params = params
        banks = params.banks

        self.unit_request: List[Channel] = [
            sim.add_channel(f"membank.u{u}.req", 2) for u in range(num_units)]
        self.unit_response: List[Channel] = [
            sim.add_channel(f"membank.u{u}.resp", 2) for u in range(num_units)]

        # unit -> bank routing
        unit_bank_req = [[sim.add_channel(f"membank.u{u}.b{b}.req", 2)
                          for b in range(banks)] for u in range(num_units)]
        for u in range(num_units):
            sim.add_component(Demux(
                f"membank.u{u}.bankrouter", self.unit_request[u], unit_bank_req[u],
                key=("addr", params.line_bytes, banks - 1)))

        # shared DRAM behind all banks
        dram_req = sim.add_channel("membank.dram.req", 4)
        dram_resp = sim.add_channel("membank.dram.resp", 4)
        self.dram = sim.add_component(DRAMModel(
            "DRAM", dram_req, dram_resp, latency=dram_latency))
        bank_dram_req = [sim.add_channel(f"membank.b{b}.dram.req", 2)
                         for b in range(banks)]
        bank_dram_resp = [sim.add_channel(f"membank.b{b}.dram.resp", 2)
                          for b in range(banks)]
        sim.add_component(RoundRobinArbiter(
            "membank.dram.arb", bank_dram_req, dram_req))
        sim.add_component(Demux(
            "membank.dram.demux", dram_resp, bank_dram_resp,
            key=("tag", 1, banks - 1)))

        # banks: arbiter over units -> cache -> demux back to units
        self.caches: List[Cache] = []
        bank_unit_resp = [[sim.add_channel(f"membank.b{b}.u{u}.resp", 2)
                           for u in range(num_units)] for b in range(banks)]
        for b in range(banks):
            bank_req = sim.add_channel(f"membank.b{b}.req", 2)
            bank_resp = sim.add_channel(f"membank.b{b}.resp", 2)
            sim.add_component(RoundRobinArbiter(
                f"membank.b{b}.arb",
                [unit_bank_req[u][b] for u in range(num_units)], bank_req))
            cache = Cache(f"L1.bank{b}", params.bank_params(), memory,
                          bank_req, bank_resp,
                          bank_dram_req[b], bank_dram_resp[b],
                          index_shift=banks.bit_length() - 1)
            sim.add_component(cache)
            self.caches.append(cache)
            sim.add_component(Demux(
                f"membank.b{b}.unitdemux", bank_resp, bank_unit_resp[b]))

        # per-unit response merge across banks
        for u in range(num_units):
            sim.add_component(RoundRobinArbiter(
                f"membank.u{u}.merge",
                [bank_unit_resp[b][u] for b in range(banks)],
                self.unit_response[u]))

    def stats(self) -> dict:
        total = {"hits": 0, "misses": 0, "loads": 0, "stores": 0,
                 "evictions": 0, "writebacks": 0}
        for cache in self.caches:
            bank = cache.stats()
            for key in total:
                total[key] += bank[key]
        accesses = total["hits"] + total["misses"]
        total["hit_rate"] = total["hits"] / accesses if accesses else 0.0
        total["banks"] = len(self.caches)
        return total
