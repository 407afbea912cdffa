"""Parked TXU instances in the compiled kernel.

A blocked-only instance (memory port taken, spawn out-buffer full) is
not re-stepped by the generated kernel until its resource has room or a
response reset its ``wake_at``; the dense oracle keeps polling. These
are the configurations where that difference would show: every one must
stay bit-identical, including stall markers, failures and what a run
leaves behind on the channels.
"""

import pytest

from repro.accel import ARRIA_10, AcceleratorConfig, TaskUnitParams
from repro.accel.generator import generate
from repro.errors import SimulationError
from repro.memory.cache import CacheParams
from repro.task.messages import SpawnMessage
from repro.task.txu import DEFAULT_LATENCIES
from repro.workloads import REGISTRY

MEMBOUND = dict(board=ARRIA_10, dram_latency_cycles=270,
                cache=CacheParams(size_bytes=1024, mshr_count=1))


def _uniform_units(workload, **params):
    """The same ``TaskUnitParams`` for every task unit of ``workload``."""
    return {task.name: TaskUnitParams(**params)
            for task in generate(workload.fresh_module()).compiled}


def _outcome(result):
    stats = dict(result.stats)
    engine = stats.pop("engine")
    return (result.cycles, result.retval, stats, result.correct), engine


def _agree(name, scale, **config):
    """Dense vs compiled on one configuration; returns the compiled
    run's engine stats."""
    workload = REGISTRY.get(name)
    dense, _ = _outcome(workload.run(
        AcceleratorConfig(engine="dense", **config), scale=scale))
    compiled, engine = _outcome(workload.run(
        AcceleratorConfig(engine="compiled", **config), scale=scale))
    assert engine["compiled_fallback"] is None
    assert compiled == dense
    assert compiled[3]
    return engine


@pytest.mark.parametrize("name, inflight, queue_depth", [
    ("fibonacci", 1, 48), ("fibonacci", 8, 192),
    ("mergesort", 1, 16), ("mergesort", 8, 32),
])
def test_shallow_queues_agree(name, inflight, queue_depth):
    """A shallow task queue backs spawns up into the unit's out-buffer,
    so detach terminators block on it (with 8 in flight, for long)."""
    units = _uniform_units(REGISTRY.get(name), ntiles=2,
                           queue_depth=queue_depth,
                           max_inflight_per_tile=inflight)
    engine = _agree(name, 1, unit_params=units)
    if inflight == 8:
        assert engine["parked_skips"] > 0


@pytest.mark.parametrize("latencies", [
    {"fmul": 9, "falu": 6, "mul": 5},   # multi-cycle nodes maturing
    {"gep": 0, "alu": 0},               # a class that matures as it fires
    {"fmul": 0, "gep": 3, "alu": 2},
], ids=["slow-fmul", "zero-gep-alu", "zero-fmul-slow-gep"])
def test_latency_tables_agree_while_the_port_is_blocked(latencies):
    """An instance whose memory node is blocked while a multi-cycle node
    matures is waiting on a timer, not on the port: it may not park."""
    engine = _agree("saxpy", 2, default_ntiles=2,
                    latencies={**DEFAULT_LATENCIES, **latencies},
                    **MEMBOUND)
    assert engine["parked_skips"] > 0


POLY = """
func poly(x: i32*, y: i32*, n: i32) {
  var i: i32 = 0;
  while (i < n) {
    spawn {
      y[i] = i * i * i * i + x[i];
    }
    i = i + 1;
  }
  sync;
}
"""

CALLS = """
func leaf(v: i32) -> i32 {
  return v * 3;
}
func calls(x: i32*, y: i32*, n: i32) {
  var i: i32 = 0;
  while (i < n) {
    spawn {
      y[i] = leaf(x[i]) + leaf(i) + x[i + 1] + x[i + 2];
    }
    i = i + 1;
  }
  sync;
}
"""


@pytest.mark.parametrize("source, entry, config", [
    (POLY, "poly", dict(default_ntiles=1)),
    (POLY, "poly", dict(default_ntiles=2)),
    (POLY, "poly", dict(default_ntiles=2,
                        latencies={**DEFAULT_LATENCIES, "mul": 9})),
    (CALLS, "calls", dict(unit_params={
        "calls.t0": TaskUnitParams(ntiles=2, queue_depth=64)})),
    (CALLS, "calls", dict(unit_params={
        "calls.t0": TaskUnitParams(ntiles=4, queue_depth=64)}, **MEMBOUND)),
], ids=["poly-1", "poly-2", "poly-2-mul9", "calls-2", "calls-4-membound"])
def test_observed_ledgers_agree_with_timers_and_calls_in_the_block(
        source, entry, config):
    """``poly``'s multiply chain must keep firing while the block's load
    is refused by the port (an instance with a multi-cycle node in
    flight is on a timer and may not park); ``calls`` has serial-call
    nodes next to its memory nodes. The observer's ledgers see every
    firing cycle and stall marker."""
    from repro.accel import build_accelerator
    from repro.frontend import compile_source
    from repro.ir.types import I32
    from repro.obs import Observer

    views = {}
    for engine in ("dense", "compiled"):
        observer = Observer()
        accel = build_accelerator(
            compile_source(source, entry),
            AcceleratorConfig(engine=engine, **config), observer=observer)
        x = accel.memory.alloc_array(I32, list(range(50)))
        y = accel.memory.alloc_array(I32, [0] * 48)
        result = accel.run(entry, [x, y, 48])
        stats = dict(result.stats)
        engine_stats = stats.pop("engine")
        views[engine] = (
            result.cycles, stats, accel.memory.read_array(y, I32, 48),
            {name: ledger.timeline
             for name, ledger in observer.ledgers.items()})
    assert engine_stats["compiled_fallback"] is None
    assert views["dense"] == views["compiled"]


def test_membound_steps_fewer_instances_than_cycles():
    """The poll/park split is reported, compiled engine only."""
    workload = REGISTRY.get("saxpy")
    result = workload.run(
        workload.default_config(4, engine="compiled", **MEMBOUND), scale=4)
    engine = result.stats["engine"]
    assert 0 < engine["instance_steps"] < result.cycles
    assert engine["parked_skips"] > engine["instance_steps"]
    event = workload.run(
        workload.default_config(4, engine="event", **MEMBOUND), scale=1)
    assert "instance_steps" not in event.stats["engine"]
    assert "parked_skips" not in event.stats["engine"]


def _run_watched(accel, function, args, probe):
    """``Accelerator.run`` with ``probe(accel)`` called before every
    executed cycle (the kernel evaluates ``done`` once per tick)."""
    root = accel.unit(function)
    accel.network.host_spawn.push(SpawnMessage(
        dest_sid=root.sid, args=tuple(args), parent_sid=None,
        parent_dyid=None))

    def done():
        probe(accel)
        return root.root_done

    accel.sim.run(done)
    assert accel.sim.compiled_fallback is None


def test_parked_instance_is_stepped_the_tick_its_response_lands():
    """A response resets ``wake_at`` to 0; the parked instance must be
    stepped (which always re-arms ``wake_at``) in that very tick, even
    though the port it parked on is still taken."""
    workload = REGISTRY.get("dedup")  # several memory nodes per block
    accel = workload.build(
        workload.default_config(2, engine="compiled", **MEMBOUND))
    prepared = workload.prepare(accel.memory, 1)
    expecting = []   # (cycle the response is popped, instance)
    landed = []

    def probe(accel):
        cycle = accel.sim.cycle
        for when, inst in expecting:
            if when == cycle - 1:
                landed.append(inst.wake_at)
        del expecting[:]
        for unit in accel.units:
            for tile in unit.tiles:
                if not tile.response_in.can_pop():
                    continue
                tag = tile.response_in.peek().tag
                inst = tile._by_uid.get(tag.instance)
                if inst is not None and inst.park and tag.node >= 0:
                    expecting.append((cycle, inst))

    _run_watched(accel, prepared.function, prepared.args, probe)
    assert landed and all(landed)


def test_both_gates_park_instances():
    workload = REGISTRY.get("fibonacci")
    units = _uniform_units(workload, ntiles=2, queue_depth=192)
    accel = workload.build(AcceleratorConfig(engine="compiled",
                                             unit_params=units))
    prepared = workload.prepare(accel.memory, 1)
    reasons = set()

    def probe(accel):
        for unit in accel.units:
            for tile in unit.tiles:
                reasons.update(inst.park for inst in tile.instances)

    _run_watched(accel, prepared.function, prepared.args, probe)
    assert reasons == {0, 1, 2}


def test_timeout_leaves_the_same_state_behind():
    """A run cut short by ``max_cycles`` with instances parked: clock,
    stats and every channel's contents and pending handshake match the
    dense engine's."""
    workload = REGISTRY.get("saxpy")
    left = {}
    for engine in ("dense", "compiled"):
        accel = workload.build(
            workload.default_config(4, engine=engine, **MEMBOUND))
        prepared = workload.prepare(accel.memory, 2)
        with pytest.raises(SimulationError, match="exceeded 3000 cycles"):
            accel.run(prepared.function, prepared.args, max_cycles=3000)
        stats = accel.collect_stats()
        stats.pop("engine")
        left[engine] = (
            accel.sim.cycle, stats, accel.sim.postmortem(),
            [(ch.name, [repr(item) for item in ch._items],
              repr(ch._pending_push), ch._pending_pop,
              ch.total_pushed, ch.total_popped)
             for ch in accel.sim.channels])
        if engine == "compiled":
            assert accel.sim.compiled_fallback is None
            assert any(inst.park for unit in accel.units
                       for tile in unit.tiles for inst in tile.instances)
    assert left["dense"] == left["compiled"]
