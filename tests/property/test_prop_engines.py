"""Property-based differential tests: event vs dense engine.

Randomly generated pipelines (producers, stalling consumers, pure-timer
components, random channel capacities) and randomly parameterised
accelerator configs must behave bit-identically under both engines —
cycle counts, delivered data, stats, and deadlock/livelock postmortems.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import DeadlockError
from repro.sim import NEVER, Component, Simulator
from repro.sim.engine import DEADLOCK_WINDOW

_SETTINGS = dict(deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


class Stage(Component):
    """A configurable pipeline stage: pops its input after a per-item
    latency and pushes downstream; declares sensitivity so the event
    engine can park it."""

    def __init__(self, name, inp, out, latency):
        super().__init__(name)
        self.inp = inp
        self.out = out
        self.latency = latency
        self._busy_until = -1
        self._item = None
        self.forwarded = 0

    def tick(self, cycle):
        if self._item is not None:
            if cycle >= self._busy_until and self.out.can_push():
                self.out.push(self._item)
                self._item = None
                self.forwarded += 1
            return
        if self.inp.can_pop():
            self._item = self.inp.pop()
            self._busy_until = cycle + self.latency

    def is_busy(self):
        return self._item is not None

    def sensitivity(self):
        return (self.inp, self.out)

    def next_wake(self, cycle):
        if self._item is not None and self._busy_until > cycle:
            return self._busy_until
        if self._item is not None:
            # waiting on out.can_push() — a sensitivity channel
            return NEVER
        return NEVER

    def stats(self):
        return {"forwarded": self.forwarded}


class Source(Component):
    def __init__(self, name, out, count, gap):
        super().__init__(name)
        self.out = out
        self.remaining = count
        self.gap = gap
        self._next_at = 0

    def tick(self, cycle):
        if self.remaining and cycle >= self._next_at and self.out.can_push():
            self.out.push(self.remaining)
            self.remaining -= 1
            self._next_at = cycle + self.gap

    def is_busy(self):
        return self.remaining > 0

    def sensitivity(self):
        return (self.out,)

    def next_wake(self, cycle):
        if not self.remaining:
            return NEVER
        return max(cycle + 1, self._next_at)


class Sink(Component):
    def __init__(self, name, inp):
        super().__init__(name)
        self.inp = inp
        self.received = []

    def tick(self, cycle):
        if self.inp.can_pop():
            self.received.append((cycle, self.inp.pop()))

    def sensitivity(self):
        return (self.inp,)

    def next_wake(self, cycle):
        return NEVER


def _build_pipeline(engine, latencies, capacities, count, gap):
    sim = Simulator(engine=engine)
    channels = [sim.add_channel(f"ch{i}", capacity=cap)
                for i, cap in enumerate(capacities)]
    sim.add_component(Source("src", channels[0], count, gap))
    for i, latency in enumerate(latencies):
        sim.add_component(Stage(f"s{i}", channels[i], channels[i + 1],
                                latency))
    sink = sim.add_component(Sink("sink", channels[-1]))
    return sim, sink


@given(latencies=st.lists(st.integers(0, 300), min_size=1, max_size=4),
       capacities=st.lists(st.integers(1, 4), min_size=2, max_size=2),
       count=st.integers(1, 12),
       gap=st.integers(1, 250))
@settings(max_examples=40, **_SETTINGS)
def test_random_pipelines_bit_identical(latencies, capacities, count, gap):
    capacities = (capacities * (len(latencies) + 1))[:len(latencies) + 1]
    outcomes = {}
    for engine in ("dense", "event"):
        sim, sink = _build_pipeline(engine, latencies, capacities, count, gap)
        cycles = sim.run(lambda: len(sink.received) == count,
                         max_cycles=500_000)
        stats = sim.stats()
        stats.pop("engine")
        outcomes[engine] = (cycles, sink.received, stats)
    assert outcomes["dense"] == outcomes["event"]


@given(capacity=st.integers(1, 3), latency=st.integers(0, 50))
@settings(max_examples=15, **_SETTINGS)
def test_starved_sink_deadlocks_identically(capacity, latency):
    outcomes = {}
    for engine in ("dense", "event"):
        sim = Simulator(engine=engine)
        inp = sim.add_channel("in", capacity=capacity)
        out = sim.add_channel("out", capacity=capacity)
        sim.add_component(Stage("stage", inp, out, latency))
        sim.add_component(Sink("sink", out))
        with pytest.raises(DeadlockError) as excinfo:
            sim.run(lambda: False, max_cycles=DEADLOCK_WINDOW * 4)
        outcomes[engine] = (excinfo.value.cycle, str(excinfo.value),
                            excinfo.value.postmortem)
    assert outcomes["dense"] == outcomes["event"]


@given(capacity=st.integers(1, 3), fill=st.integers(1, 3))
@settings(max_examples=5, **_SETTINGS)
def test_busy_livelock_fires_identically(capacity, fill):
    """Livelock path: a forever-busy component retrying a full channel
    trips the STALL_WINDOW detector at the same cycle under both
    engines, with the same postmortem."""
    from repro.sim.engine import STALL_WINDOW

    class BusyRetrier(Component):
        def __init__(self, name, out):
            super().__init__(name)
            self.out = out

        def tick(self, cycle):
            if self.out.can_push():
                self.out.push("x")

        def is_busy(self):
            return True

    fill = min(fill, capacity)
    outcomes = {}
    for engine in ("dense", "event"):
        sim = Simulator(engine=engine)
        out = sim.add_channel("out", capacity=capacity)
        sim.add_component(BusyRetrier("r", out))
        with pytest.raises(DeadlockError, match="livelock") as excinfo:
            sim.run(lambda: False, max_cycles=STALL_WINDOW * 2 + fill)
        outcomes[engine] = (excinfo.value.cycle, str(excinfo.value),
                            excinfo.value.postmortem)
    assert outcomes["dense"] == outcomes["event"]


@given(tiles=st.sampled_from([1, 2, 4]),
       mshrs=st.sampled_from([1, 4]),
       dram_latency=st.sampled_from([20, 200]),
       cache_bytes=st.sampled_from([1024, 65536]),
       inflight=st.sampled_from([1, 3, 8]),
       databox_entries=st.sampled_from([1, 8]),
       observed=st.booleans())
@settings(max_examples=8, **_SETTINGS)
def test_random_accelerator_configs_bit_identical(
        tiles, mshrs, dram_latency, cache_bytes, inflight, databox_entries,
        observed):
    """All three engines — the compiled case regenerates a specialized
    kernel per sampled topology, so this doubles as a codegen fuzz. The
    in-flight window and data-box depth set how many instances wait on
    a tile's memory port (the compiled kernel parks those); an attached
    observer adds the stall ledgers (``stats["obs"]``) to the bargain."""
    from repro.accel import TaskUnitParams
    from repro.accel.generator import generate
    from repro.memory.cache import CacheParams
    from repro.obs import Observer
    from repro.workloads import REGISTRY

    workload = REGISTRY.get("saxpy")
    units = {task.name: TaskUnitParams(ntiles=tiles,
                                       max_inflight_per_tile=inflight,
                                       databox_entries=databox_entries)
             for task in generate(workload.fresh_module()).compiled}
    outcomes = {}
    for engine in ("dense", "event", "compiled"):
        config = workload.default_config(
            tiles, engine=engine, unit_params=units,
            cache=CacheParams(size_bytes=cache_bytes, mshr_count=mshrs),
            dram_latency_cycles=dram_latency)
        result = workload.run(config,
                              observer=Observer() if observed else None)
        stats = dict(result.stats)
        engine_stats = stats.pop("engine")
        assert ("obs" in stats) == observed
        outcomes[engine] = (result.cycles, result.retval, stats,
                            result.correct)
    assert engine_stats["compiled_fallback"] is None
    assert outcomes["dense"] == outcomes["event"]
    assert outcomes["dense"] == outcomes["compiled"]
    assert outcomes["event"][3]  # and the answer is right


@given(workload_name=st.sampled_from(["fibonacci", "mergesort", "dedup"]),
       tiles=st.sampled_from([1, 2, 4]),
       scale=st.integers(1, 3))
@settings(max_examples=8, **_SETTINGS)
def test_compiled_kernel_parity_across_workloads(workload_name, tiles, scale):
    """Always-hot workloads under the compiled kernel: every sampled
    (workload, tiles) pair elaborates a different netlist, so the
    generated stepper/dispatch/plumbing code paths all get exercised
    against the dense oracle."""
    from repro.workloads import REGISTRY

    workload = REGISTRY.get(workload_name)
    outcomes = {}
    for engine in ("dense", "compiled"):
        result = workload.run(workload.default_config(tiles, engine=engine),
                              scale=scale)
        stats = dict(result.stats)
        stats.pop("engine")
        outcomes[engine] = (result.cycles, result.retval, stats,
                            result.correct)
    assert outcomes["dense"] == outcomes["compiled"]
    assert outcomes["compiled"][3]
