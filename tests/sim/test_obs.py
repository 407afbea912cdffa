"""Tests for the observability subsystem: cycle accounting, channel
probes, the zero-cost-when-disabled invariant, and trace export."""

import io
import json

import pytest

from repro.errors import SimulationError
from repro.memory.messages import MemRequest
from repro.obs import (
    ChannelProbe,
    CycleLedger,
    Observer,
    chrome_trace,
    export_chrome_trace,
    validate_chrome_trace,
)
from repro.sim import (
    OBS_BUSY,
    OBS_IDLE,
    OBS_STALL_IN,
    OBS_STALL_OUT,
    Channel,
    Component,
    Simulator,
    Trace,
)


class Producer(Component):
    def __init__(self, name, out, count):
        super().__init__(name)
        self.out = out
        self.remaining = count
        self.next_value = 0

    def tick(self, cycle):
        if self.remaining > 0 and self.out.can_push():
            self.out.push(self.next_value)
            self.next_value += 1
            self.remaining -= 1

    def obs_classify(self, cycle):
        if self.remaining <= 0:
            return OBS_IDLE, None
        if not self.out.can_push():
            return OBS_STALL_OUT, "consumer-backpressure"
        return OBS_BUSY, None


class Consumer(Component):
    def __init__(self, name, inp, stall_every=0):
        super().__init__(name)
        self.inp = inp
        self.received = []
        self.stall_every = stall_every

    def tick(self, cycle):
        if self.stall_every and cycle % self.stall_every == 0:
            return
        if self.inp.can_pop():
            self.received.append(self.inp.pop())

    def obs_classify(self, cycle):
        return (OBS_BUSY, None) if self.inp.can_pop() else (OBS_IDLE, None)


class TestCycleLedger:
    def test_conservation(self):
        ledger = CycleLedger("x")
        for cycle in range(10):
            ledger.record(cycle, OBS_BUSY if cycle % 2 else OBS_IDLE)
        assert ledger.cycles == 10
        assert sum(ledger.breakdown().values()) == 10
        assert ledger.utilization() == 0.5

    def test_reasons_and_timeline_rle(self):
        ledger = CycleLedger("x")
        for cycle in range(4):
            ledger.record(cycle, OBS_STALL_IN, "memory")
        ledger.record(4, OBS_BUSY)
        assert ledger.stall_reasons() == {"memory": 4}
        assert ledger.timeline == [[0, 4, OBS_STALL_IN, "memory"],
                                   [4, 5, OBS_BUSY, None]]

    def test_rejects_unknown_state(self):
        with pytest.raises(ValueError):
            CycleLedger("x").record(0, "sleeping")


class TestChannelProbe:
    def test_histogram_peak_backpressure(self):
        ch = Channel("c", capacity=1)
        probe = ChannelProbe(ch)
        probe.record(0)            # empty
        ch.push(1)
        ch.commit()
        probe.record(1)            # full
        probe.record(2)            # still full
        assert probe.peak_depth == 1
        assert probe.backpressure_cycles == 2
        assert probe.histogram == {0: 1, 1: 2}
        assert probe.occupancy_timeline == [(0, 0), (1, 1)]
        assert probe.mean_occupancy() == pytest.approx(2 / 3)


class TestObserver:
    def _run(self, stall_every=0, capacity=2):
        sim = Simulator()
        ch = sim.add_channel("pc", capacity=capacity)
        sim.add_component(Producer("p", ch, count=30))
        consumer = sim.add_component(Consumer("c", ch, stall_every=stall_every))
        observer = sim.attach_observer(Observer())
        cycles = sim.run(lambda: len(consumer.received) == 30,
                         max_cycles=5000)
        return sim, observer, cycles

    def test_every_component_accounts_every_cycle(self):
        sim, observer, cycles = self._run()
        assert observer.cycles_observed == cycles
        for ledger in observer.ledgers.values():
            assert ledger.cycles == cycles
            assert sum(ledger.breakdown().values()) == cycles

    def test_backpressure_attributed(self):
        sim, observer, _ = self._run(stall_every=2, capacity=1)
        producer = observer.ledgers["p"]
        assert producer.stall_reasons().get("consumer-backpressure", 0) > 0
        assert ("p", "consumer-backpressure",
                producer.stall_reasons()["consumer-backpressure"]) in \
            observer.stall_sources()
        probe = observer.probes["pc"]
        assert probe.backpressure_cycles > 0
        assert probe.peak_depth == 1

    def test_channel_totals_in_sim_stats(self):
        sim, _, _ = self._run()
        stats = sim.stats()
        assert stats["channels"]["pc"]["pushed"] == 30
        assert stats["channels"]["pc"]["popped"] == 30


class TestZeroCost:
    """Observability off must be bit-identical to the seed simulator."""

    def test_workload_cycles_identical_with_and_without_instrumentation(self):
        from repro.workloads import REGISTRY

        workload = REGISTRY.get("saxpy")
        plain = workload.run(scale=1)
        observer = Observer()
        instrumented = workload.run(scale=1, trace=Trace(enabled=True),
                                    observer=observer)
        assert plain.cycles == instrumented.cycles
        assert plain.correct and instrumented.correct
        assert observer.cycles_observed == instrumented.cycles
        # conservation holds for the real accelerator too
        for ledger in observer.ledgers.values():
            assert sum(ledger.breakdown().values()) == instrumented.cycles


class TestChromeTrace:
    def _profiled_run(self):
        from repro.workloads import REGISTRY

        observer = Observer()
        trace = Trace(enabled=True)
        result = REGISTRY.get("saxpy").run(scale=1, trace=trace,
                                           observer=observer)
        return result, observer, trace

    def test_export_is_valid_and_monotonic(self):
        result, observer, trace = self._profiled_run()
        document = chrome_trace(observer=observer, trace=trace)
        assert validate_chrome_trace(document) == []
        # round-trips through JSON (payloads carry IR objects)
        encoded = json.dumps(document)
        assert json.loads(encoded)["traceEvents"]

    @pytest.mark.parametrize("events, problem", [
        ([], "traceEvents missing or empty"),
        ([{"ts": 0}], "event 0: missing ph"),
        ([{"ph": "X", "ts": "soon"}], "event 0: bad ts 'soon'"),
        ([{"ph": "i", "ts": -1}], "event 0: bad ts -1"),
        ([{"ph": "i", "ts": 5}, {"ph": "M"}, {"ph": "i", "ts": 4}],
         "event 2: ts 4 < previous 5"),
        ([{"ph": "X", "ts": 0, "dur": -2}], "event 0: negative dur"),
        # what once raised, or passed, instead of naming a problem
        ([{"ph": "X", "ts": 1, "dur": None}], "event 0: bad dur None"),
        ([{"ph": "X", "ts": 1, "dur": "3"}], "event 0: bad dur '3'"),
        (["graph"], "event 0: not an object"),
        ([{"ph": "i", "ts": float("nan")}], "event 0: bad ts nan"),
    ], ids=["empty", "no-ph", "text-ts", "negative-ts", "decreasing-ts",
            "negative-dur", "null-dur", "text-dur", "non-object", "nan-ts"])
    def test_validator_names_what_is_malformed(self, events, problem):
        assert validate_chrome_trace({"traceEvents": events}) == [problem]

    def test_per_tile_tracks_present(self):
        _, observer, trace = self._profiled_run()
        document = chrome_trace(observer=observer, trace=trace)
        thread_names = [e["args"]["name"] for e in document["traceEvents"]
                        if e["ph"] == "M" and e["name"] == "thread_name"]
        assert any(".tile0" in name for name in thread_names)
        states = [e for e in document["traceEvents"] if e["ph"] == "X"]
        assert states and all(e["dur"] >= 1 for e in states)

    def test_export_to_file_object(self):
        _, observer, trace = self._profiled_run()
        buffer = io.StringIO()
        export_chrome_trace(buffer, observer=observer, trace=trace)
        assert json.loads(buffer.getvalue())["traceEvents"]

    def test_counter_tracks_for_channels(self):
        _, observer, trace = self._profiled_run()
        document = chrome_trace(observer=observer)
        counters = [e for e in document["traceEvents"] if e["ph"] == "C"]
        assert counters
        assert all("occupancy" in e["args"] for e in counters)

    def test_file_layout_one_event_per_line(self, tmp_path):
        _, observer, trace = self._profiled_run()
        path = tmp_path / "trace.json"
        document = export_chrome_trace(str(path), observer=observer,
                                       trace=trace, include_idle=True)
        with open(path) as handle:
            assert json.load(handle) == document
        assert validate_chrome_trace(document) == []
        lines = path.read_text().splitlines()
        assert lines[0] == '{"traceEvents":['
        assert lines[-1].startswith("],")
        body = lines[1:-1]
        assert len(body) == len(document["traceEvents"])
        for line, event in zip(body, document["traceEvents"]):
            assert json.loads(line.rstrip(",")) == event
        assert not any(line.startswith(" ") for line in lines)
        assert list(tmp_path.iterdir()) == [path]  # no temp file left

    def test_failed_export_keeps_previous_file(self, tmp_path, monkeypatch):
        class Hostile:
            def __str__(self):
                raise RuntimeError("payload cannot be rendered")

        path = tmp_path / "trace.json"
        path.write_text("previous export")
        trace = Trace(enabled=True)
        trace.emit(0, "unit", "mem", "load", payload={"value": Hostile()})
        with pytest.raises(RuntimeError):
            export_chrome_trace(str(path), trace=trace)
        assert path.read_text() == "previous export"
        assert list(tmp_path.iterdir()) == [path]

        # ... and when the write itself dies half-way (full disk)
        from repro.obs import perfetto

        def torn_write(handle, document):
            handle.write('{"traceEvents":[')
            raise OSError("no space left on device")

        monkeypatch.setattr(perfetto, "_write_document", torn_write)
        trace = Trace(enabled=True)
        trace.emit(0, "unit", "mem", "load")
        with pytest.raises(OSError):
            export_chrome_trace(str(path), trace=trace)
        assert path.read_text() == "previous export"
        assert list(tmp_path.iterdir()) == [path]  # temp file removed


class Flipper(Component):
    """Not event-aware (``sensitivity()`` is None) and classified by the
    parity of the cycle: every cycle differs from the one before."""

    def obs_classify(self, cycle):
        return (OBS_BUSY, None) if cycle % 2 else (OBS_STALL_IN, "odd")


class Stuck(Component):
    """Pushes until its channel is full, then waits forever: nothing
    ever pops, so the run deadlocks."""

    def __init__(self, name, out):
        super().__init__(name)
        self.out = out

    def tick(self, cycle):
        if self.out.can_push():
            self.out.push(cycle)

    def sensitivity(self):
        return (self.out,)

    def obs_classify(self, cycle):
        if self.out.can_push():
            return OBS_BUSY, None
        return OBS_STALL_OUT, "nobody-pops"


def _conserved(observer):
    for ledger in observer.ledgers.values():
        assert sum(ledger.breakdown().values()) == ledger.cycles
        assert ledger.cycles == observer.cycles_observed, ledger.name
        ends = [run[1] for run in ledger.timeline]
        starts = [run[0] for run in ledger.timeline]
        assert starts[1:] == ends[:-1], ledger.name  # contiguous
        for before, after in zip(ledger.timeline, ledger.timeline[1:]):
            assert before[2:] != after[2:], ledger.name  # equal runs merged
    for probe in observer.probes.values():
        assert probe.samples == observer.cycles_observed, probe.name
        assert sum(probe.histogram.values()) == probe.samples


@pytest.mark.parametrize("engine", ["dense", "event", "compiled"])
class TestOpenRuns:
    """Runs still open when ``Simulator.run`` ends are booked up to the
    clock, however it ends, and continue across ``run`` calls."""

    def test_unaware_component_is_resampled_every_cycle(self, engine):
        sim = Simulator(engine=engine)
        ch = sim.add_channel("pc", capacity=2)
        sim.add_component(Flipper("flip"))
        sim.add_component(Producer("p", ch, count=10))
        consumer = sim.add_component(Consumer("c", ch))
        observer = sim.attach_observer(Observer())
        cycles = sim.run(lambda: len(consumer.received) == 10)
        _conserved(observer)
        flips = observer.ledgers["flip"]
        assert len(flips.timeline) == cycles
        assert flips.stall_reasons() == {"odd": (cycles + 1) // 2}

    def test_deadlock_leaves_complete_ledgers(self, engine):
        from repro.errors import DeadlockError

        sim = Simulator(engine=engine)
        sim.add_component(Stuck("s", sim.add_channel("out", capacity=2)))
        observer = sim.attach_observer(Observer())
        with pytest.raises(DeadlockError) as failure:
            sim.run(lambda: False)
        assert failure.value.cycle == sim.cycle
        assert observer.cycles_observed == sim.cycle
        assert observer.last_cycle == sim.cycle - 1
        _conserved(observer)
        assert observer.ledgers["s"].timeline == [
            [0, 1, OBS_BUSY, None],
            [1, sim.cycle, OBS_STALL_OUT, "nobody-pops"]]
        assert observer.probes["out"].occupancy_timeline == [
            (0, 1), (1, 2)]
        assert observer.probes["out"].backpressure_cycles == sim.cycle - 1

    def test_timeout_leaves_complete_ledgers(self, engine):
        sim = Simulator(engine=engine)
        sim.add_component(Stuck("s", sim.add_channel("out", capacity=2)))
        observer = sim.attach_observer(Observer())
        with pytest.raises(SimulationError):
            sim.run(lambda: False, max_cycles=100)
        assert observer.cycles_observed == sim.cycle == 100
        _conserved(observer)

    def test_second_run_continues_the_same_runs(self, engine):
        from repro.accel import AcceleratorConfig, build_accelerator
        from repro.frontend import compile_source
        from repro.ir.types import I32

        source = """
        func bump(a: i32*, n: i32) -> i32 {
          cilk_for (var i: i32 = 0; i < n; i = i + 1) { a[i] = a[i] + 1; }
          return n;
        }
        """
        observer = Observer()
        accel = build_accelerator(
            compile_source(source, "tworuns"),
            AcceleratorConfig(default_ntiles=2, engine=engine),
            observer=observer)
        addr = accel.memory.alloc_array(I32, [0] * 8)
        first = accel.run("bump", [addr, 8])
        assert observer.cycles_observed == first.cycles
        _conserved(observer)
        second = accel.run("bump", [addr, 8])
        if engine == "compiled":  # sampled by the generated kernel itself
            assert accel.sim.compiled_fallback is None
        assert accel.memory.read_array(addr, I32, 8) == [2] * 8
        assert observer.cycles_observed == accel.sim.cycle
        assert accel.sim.cycle == first.cycles + second.cycles
        _conserved(observer)

    def test_late_registrations_are_picked_up(self, engine):
        sim = Simulator(engine=engine)
        ch = sim.add_channel("pc", capacity=2)
        sim.add_component(Producer("p", ch, count=5))
        consumer = sim.add_component(Consumer("c", ch))
        observer = sim.attach_observer(Observer())
        first = sim.run(lambda: len(consumer.received) == 5)
        late = sim.add_channel("late", capacity=1)
        sim.add_component(Producer("p2", late, count=3))
        consumer2 = sim.add_component(Consumer("c2", late))
        second = sim.run(lambda: len(consumer2.received) == 3)
        assert observer.cycles_observed == first + second
        assert observer.ledgers["p"].cycles == first + second
        for name in ("p2", "c2"):
            assert observer.ledgers[name].cycles == second
            assert observer.ledgers[name].timeline[0][0] == first
        assert observer.probes["late"].samples == second
        assert observer.probes["late"].peak_depth == 1


FIB = """
func fib(n: i32) -> i32 {
  if (n < 2) { return n; }
  var x: i32 = spawn fib(n - 1);
  var y: i32 = spawn fib(n - 2);
  sync;
  return x + y;
}
"""


@pytest.mark.parametrize("engine", ["dense", "event", "compiled"])
class TestOpenRunsOnAccelerators:
    """The same endings on elaborated designs, which ``engine="compiled"``
    runs through its generated kernel (the toy components above send it
    through the event-engine fallback)."""

    def _accelerator(self, engine, source=FIB, name="fib"):
        from repro.accel import AcceleratorConfig, build_accelerator
        from repro.frontend import compile_source

        observer = Observer()
        accel = build_accelerator(
            compile_source(source, name),
            AcceleratorConfig(default_ntiles=2, engine=engine),
            observer=observer)
        return accel, observer

    def _ended(self, accel, observer, engine):
        if engine == "compiled":
            assert accel.sim.compiled_fallback is None
        assert observer.cycles_observed == accel.sim.cycle
        assert observer.last_cycle == accel.sim.cycle - 1
        _conserved(observer)

    def test_deadlock_leaves_complete_ledgers(self, engine):
        import os

        from repro.cli import _default_profile_args
        from repro.errors import DeadlockError

        path = os.path.join(os.path.dirname(__file__), "..", "..",
                            "examples", "programs", "deadlock_ring.cilk")
        with open(path) as handle:
            accel, observer = self._accelerator(
                engine, handle.read(), "deadlock_ring")
        function = accel.design.module.functions[0]
        args = _default_profile_args(function, accel.memory, 8)
        with pytest.raises(DeadlockError) as failure:
            accel.run(function.name, args)
        assert failure.value.cycle == accel.sim.cycle
        self._ended(accel, observer, engine)
        stalled = {c["name"] for c in failure.value.postmortem["stalled"]}
        for name in stalled & set(observer.ledgers):
            # whoever the post-mortem blames was booked as stalled up to
            # the clock, through the fast-forwarded tail
            assert observer.ledgers[name].timeline[-1][1] == accel.sim.cycle
            assert observer.ledgers[name].timeline[-1][2] in (
                OBS_STALL_IN, OBS_STALL_OUT)

    def test_timeout_leaves_complete_ledgers(self, engine):
        accel, observer = self._accelerator(engine)
        with pytest.raises(SimulationError):
            accel.run("fib", [12], max_cycles=150)
        assert accel.sim.cycle == 150
        self._ended(accel, observer, engine)

    def test_late_registrations_are_picked_up(self, engine):
        from repro.memory.dram import DRAMModel

        accel, observer = self._accelerator(engine)
        first = accel.run("fib", [6])
        sim = accel.sim
        late = DRAMModel("late.dram", sim.add_channel("late.req"),
                         sim.add_channel("late.resp"), latency=7)
        sim.add_component(late)
        late.request_in.push(MemRequest(tag=0, op="load", addr=0, size=4))
        second = accel.run("fib", [6])
        if engine == "compiled":
            assert sim.compiled_fallback is None
        assert observer.cycles_observed == sim.cycle
        early = observer.ledgers[sim.components[0].name]
        assert early.cycles == first.cycles + second.cycles
        ledger = observer.ledgers["late.dram"]
        assert ledger.cycles == second.cycles
        # the staged request commits in the run's first cycle, is held for
        # 7 cycles from the next, and its answer is never popped
        start = first.cycles
        assert ledger.timeline == [
            [start, start + 1, OBS_IDLE, None],
            [start + 1, start + 8, OBS_BUSY, None],
            [start + 8, sim.cycle, OBS_IDLE, None]]
        assert observer.probes["late.req"].occupancy_timeline == [
            (start, 1), (start + 1, 0)]
        assert observer.probes["late.resp"].occupancy_timeline == [
            (start, 0), (start + 8, 1)]


class OracleObserver:
    """An independent per-cycle observer: only ``on_cycle(sim, cycle)``,
    everything classified and read on every cycle into plain dicts and
    lists — none of the ``repro.obs`` recording classes, no open runs,
    no ``flush``. The engine gives it the exact per-cycle replay."""

    def __init__(self):
        self.cycles = 0
        self.states = {}      # ledger name -> [(state, reason), ...]
        self.depths = {}      # channel name -> [occupancy, ...]

    def on_cycle(self, sim, cycle):
        assert cycle == self.cycles, "cycles must arrive in order, once"
        self.cycles += 1
        for component in sim.components:
            self.states.setdefault(component.name, []).append(
                tuple(component.obs_classify(cycle)))
            for name, state, reason in component.obs_children(cycle):
                self.states.setdefault(name, []).append((state, reason))
        for channel in sim.channels:
            self.depths.setdefault(channel.name, []).append(
                channel.occupancy)

    def as_dict(self):  # Accelerator.run puts this under stats["obs"]
        return {"cycles_observed": self.cycles}

    def breakdown(self, name):
        counts = {state: 0 for state in
                  (OBS_BUSY, OBS_STALL_IN, OBS_STALL_OUT, OBS_IDLE)}
        for state, _ in self.states[name]:
            counts[state] += 1
        return counts

    def stall_reasons(self, name):
        counts = {}
        for _, reason in self.states[name]:
            if reason is not None:
                counts[reason] = counts.get(reason, 0) + 1
        return counts

    def timeline(self, name):
        runs = []
        for cycle, (state, reason) in enumerate(self.states[name]):
            if runs and runs[-1][2:] == [state, reason]:
                runs[-1][1] = cycle + 1
            else:
                runs.append([cycle, cycle + 1, state, reason])
        return runs

    def occupancy_timeline(self, name):
        changes = []
        for cycle, depth in enumerate(self.depths[name]):
            if not changes or changes[-1][1] != depth:
                changes.append((cycle, depth))
        return changes


def _oracle_configs():
    from repro.accel import ARRIA_10
    from repro.memory.cache import CacheParams
    from repro.workloads import REGISTRY

    configs = [(name, 1, {"ntiles": 2}) for name in REGISTRY.names()]
    configs.append(("fibonacci", 1, {"ntiles": 3}))
    configs.append(("saxpy", 4, {
        "ntiles": 2, "board": ARRIA_10, "dram_latency_cycles": 270,
        "cache": CacheParams(size_bytes=1024, mshr_count=1)}))
    return configs


@pytest.mark.parametrize("engine", ["dense", "event", "compiled"])
def test_observer_agrees_with_independent_oracle(engine):
    """The change-driven sampler against an observer that shares none of
    its code and samples everything every cycle, on every registry
    workload, a 3-tile unit and the fast-forward-heavy membound saxpy."""
    from repro.workloads import REGISTRY

    for name, scale, overrides in _oracle_configs():
        workload = REGISTRY.get(name)
        label = f"{name} {sorted(overrides)} under {engine}"

        def run(observer):
            config = workload.default_config(engine=engine, **overrides)
            return workload.run(config, scale=scale, observer=observer)

        oracle, observer = OracleObserver(), Observer()
        expected, result = run(oracle), run(observer)
        assert expected.cycles == result.cycles == oracle.cycles, label
        assert observer.cycles_observed == oracle.cycles, label
        if "cache" in overrides and engine != "dense":
            skipped = result.stats["engine"]["fast_forwarded_cycles"]
            assert skipped >= 0.7 * result.cycles, label
        assert set(observer.ledgers) == set(oracle.states), label
        for ledger in observer.ledgers.values():
            where = f"{label}: {ledger.name}"
            assert ledger.breakdown() == oracle.breakdown(ledger.name), where
            assert ledger.stall_reasons() == \
                oracle.stall_reasons(ledger.name), where
            assert ledger.timeline == oracle.timeline(ledger.name), where
        assert set(observer.probes) == set(oracle.depths), label
        for probe in observer.probes.values():
            where = f"{label}: {probe.name}"
            assert probe.occupancy_timeline == \
                oracle.occupancy_timeline(probe.name), where
            assert probe.samples == oracle.cycles, where
            assert probe.peak_depth == max(oracle.depths[probe.name]), where


def test_task_unit_classifies_each_tile_once_per_sample():
    """``obs_classify`` and the ``obs_children`` that follows it serve one
    classification of the tiles; ``obs_children`` on its own (or for
    another cycle) still computes a fresh one."""
    from repro.workloads import REGISTRY

    workload = REGISTRY.get("saxpy")
    accel = workload.build(workload.default_config(3))
    unit = accel.units[0]
    calls = []
    for tile in unit.tiles:
        tile.obs_classify = (
            lambda cycle, _tile=tile: calls.append((_tile.obs_name, cycle))
            or type(_tile).obs_classify(_tile, cycle))
    names = [f"{unit.name}.tile{i}" for i in range(3)]

    unit.obs_classify(7)
    children = list(unit.obs_children(7))
    assert calls == [(name, 7) for name in names]
    assert children == [(name, OBS_IDLE, None) for name in names]

    assert list(unit.obs_children(7)) == children  # handoff is one-shot
    assert len(calls) == 6
    unit.obs_classify(8)
    assert list(unit.obs_children(9)) == children  # other cycle: fresh
    assert len(calls) == 12
