"""Tests for the event-driven simulation kernel.

The contract under test: the event engine (wakeup scheduling plus
quiescent fast-forward) produces bit-identical cycle counts, stats and
failure behaviour to the dense tick-everything oracle, while executing
strictly fewer component ticks on sparse activity.
"""

import pytest

from repro.errors import ConfigError, DeadlockError, SimulationError
from repro.obs import Observer
from repro.sim import DEFAULT_ENGINE, ENGINES, NEVER, Component, Simulator
from repro.sim.engine import DEADLOCK_WINDOW, STALL_WINDOW


class Producer(Component):
    """Dense-style producer: no sensitivity declared (engine fallback)."""

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

    def is_busy(self):
        return self.remaining > 0


class EventConsumer(Component):
    """Event-aware consumer: woken only by traffic on its input."""

    def __init__(self, name, inp):
        super().__init__(name)
        self.inp = inp
        self.received = []
        self.ticks = 0

    def tick(self, cycle):
        self.ticks += 1
        if self.inp.can_pop():
            self.received.append(self.inp.pop())

    def sensitivity(self):
        return (self.inp,)

    def next_wake(self, cycle):
        return NEVER


class Timer(Component):
    """Fires one message after a long pure-timer delay (no channel input),
    exercising the quiescent fast-forward path."""

    def __init__(self, name, out, fire_at):
        super().__init__(name)
        self.out = out
        self.fire_at = fire_at
        self.fired = False
        self.ticks = 0

    def tick(self, cycle):
        self.ticks += 1
        if not self.fired and cycle >= self.fire_at and self.out.can_push():
            self.out.push("late")
            self.fired = True

    def is_busy(self):
        return not self.fired

    def sensitivity(self):
        return (self.out,)

    def next_wake(self, cycle):
        if self.fired:
            return NEVER
        return max(cycle + 1, self.fire_at)


class Recorder(Component):
    """Event-aware component that appends ``(cycle, name)`` to a shared
    log on every tick; parks on ``NEVER`` except for one optional timer."""

    def __init__(self, name, watch, log, wake_at=NEVER):
        super().__init__(name)
        self.watch = watch
        self.log = log
        self.wake_at = wake_at

    def tick(self, cycle):
        self.log.append((cycle, self.name))

    def sensitivity(self):
        return self.watch

    def next_wake(self, cycle):
        return self.wake_at if cycle < self.wake_at else NEVER


def _build(engine, count=50):
    sim = Simulator(engine=engine)
    ch = sim.add_channel("pc", capacity=2)
    sim.add_component(Producer("p", ch, count=count))
    consumer = sim.add_component(EventConsumer("c", ch))
    return sim, consumer


class TestEngineSelection:
    def test_engines_tuple(self):
        assert ENGINES == ("event", "dense", "compiled")

    def test_unknown_engine_rejected(self):
        with pytest.raises(SimulationError, match="unknown engine"):
            Simulator(engine="magic")

    def test_config_engine_validated(self):
        from repro.accel.config import AcceleratorConfig

        with pytest.raises(ConfigError, match="unknown engine"):
            AcceleratorConfig(engine="magic")

    def test_every_layer_defaults_to_default_engine(self):
        """One spelling: the simulator, the config, sweep specs and the
        CLI all take their default from ``DEFAULT_ENGINE``."""
        from repro.accel.config import AcceleratorConfig
        from repro.cli import build_parser
        from repro.exp import config_from_spec, workload_points
        from repro.workloads import REGISTRY

        assert DEFAULT_ENGINE == "compiled" and DEFAULT_ENGINE in ENGINES
        assert Simulator().engine == DEFAULT_ENGINE
        assert AcceleratorConfig().engine == DEFAULT_ENGINE
        (point,) = workload_points(["saxpy"])
        assert point["engine"] == DEFAULT_ENGINE
        spec = {"evaluator": "workload", "workload": "saxpy", "tiles": 2}
        assert config_from_spec(REGISTRY.get("saxpy"),
                                spec).engine == DEFAULT_ENGINE
        parser = build_parser()
        assert parser.parse_args(["run", "saxpy"]).engine == DEFAULT_ENGINE
        assert parser.parse_args(["sweep"]).engines == DEFAULT_ENGINE
        assert parser.parse_args(
            ["profile", "x.cilk"]).engine == DEFAULT_ENGINE


class TestBitIdentical:
    def test_producer_consumer_same_cycles(self):
        dense, dc = _build("dense")
        event, ec = _build("event")
        cd = dense.run(lambda: len(dc.received) == 50, max_cycles=1000)
        ce = event.run(lambda: len(ec.received) == 50, max_cycles=1000)
        assert cd == ce
        assert dc.received == ec.received

    def test_stats_identical_modulo_engine_key(self):
        dense, dc = _build("dense")
        event, ec = _build("event")
        dense.run(lambda: len(dc.received) == 50, max_cycles=1000)
        event.run(lambda: len(ec.received) == 50, max_cycles=1000)
        sd, se = dense.stats(), event.stats()
        assert sd.pop("engine")["name"] == "dense"
        assert se.pop("engine")["name"] == "event"
        assert sd == se

    def test_timer_fast_forward_matches_dense(self):
        for delay in (10, 500, DEADLOCK_WINDOW + 123):
            results = {}
            for engine in ENGINES:
                sim = Simulator(engine=engine)
                ch = sim.add_channel("t", capacity=1)
                timer = sim.add_component(Timer("timer", ch, fire_at=delay))
                consumer = sim.add_component(EventConsumer("c", ch))
                cycles = sim.run(lambda c=consumer: c.received == ["late"],
                                 max_cycles=delay * 3 + 100)
                results[engine] = (cycles, timer.ticks if engine == "event"
                                   else None)
            assert results["dense"][0] == results["event"][0]

    def test_fast_forward_skips_quiet_cycles(self):
        sim = Simulator(engine="event")
        ch = sim.add_channel("t", capacity=1)
        sim.add_component(Timer("timer", ch, fire_at=1000))
        consumer = sim.add_component(EventConsumer("c", ch))
        sim.run(lambda: consumer.received == ["late"], max_cycles=5000)
        engine = sim.engine_stats()
        assert engine["fast_forwarded_cycles"] > 900
        assert engine["ticks_executed"] < 100

    def test_event_engine_executes_fewer_component_ticks(self):
        dense, dc = _build("dense", count=10)
        event, ec = _build("event", count=10)
        dense.run(lambda: len(dc.received) == 10, max_cycles=1000)
        event.run(lambda: len(ec.received) == 10, max_cycles=1000)
        # the producer is dense-fallback (ticks every cycle) but the
        # event-aware consumer only wakes on channel movement
        assert ec.ticks <= dc.ticks

    def test_dense_fallback_for_undeclared_sensitivity(self):
        """Components without sensitivity() run every cycle under both
        engines — the conservative default keeps third-party components
        correct."""

        class Spinner(Component):
            def __init__(self, name):
                super().__init__(name)
                self.ticks = 0

            def tick(self, cycle):
                self.ticks += 1

        sim = Simulator(engine="event")
        spinner = sim.add_component(Spinner("s"))
        with pytest.raises(DeadlockError):
            sim.run(lambda: False, max_cycles=DEADLOCK_WINDOW * 3)
        assert spinner.ticks == sim.cycle


class TestWakeRule:
    """Tick a component iff its wake cycle has arrived; a committed
    channel wakes its subscribers for the following cycle."""

    def _run_until(self, sim, cycle):
        sim.run(lambda: sim.cycle >= cycle, max_cycles=cycle + 10)

    def test_parked_component_wakes_the_cycle_after_a_commit(self):
        sim = Simulator(engine="event")
        ch = sim.add_channel("t", capacity=1)
        log = []
        sim.add_component(Recorder("r", (ch,), log))
        sim.add_component(Timer("timer", ch, fire_at=40))
        self._run_until(sim, 80)
        # the universal first tick, then nothing until the push staged
        # in cycle 40 commits — visible, and woken for, cycle 41
        assert log == [(0, "r"), (41, "r")]

    def test_channel_without_movement_wakes_nobody(self):
        sim = Simulator(engine="event")
        watched = sim.add_channel("watched", capacity=1)
        other = sim.add_channel("other", capacity=1)
        log = []
        sim.add_component(Recorder("r", (watched,), log))
        sim.add_component(Timer("timer", other, fire_at=40))
        self._run_until(sim, 80)
        assert log == [(0, "r")]

    def test_timer_ticks_at_its_deadline_and_not_before(self):
        sim = Simulator(engine="event")
        log = []
        sim.add_component(Recorder("r", (), log, wake_at=100))
        self._run_until(sim, 200)
        assert log == [(0, "r"), (100, "r")]
        assert sim.engine_stats()["ticks_executed"] == 2

    def test_woken_components_tick_in_registration_order(self):
        sim = Simulator(engine="event")
        ch = sim.add_channel("t", capacity=1)
        log = []
        # b is due by timer, a and c by the commit; the driver of the
        # commit is registered between them
        sim.add_component(Recorder("a", (ch,), log))
        sim.add_component(Recorder("b", (), log, wake_at=11))
        sim.add_component(Timer("timer", ch, fire_at=10))
        sim.add_component(Recorder("c", (ch,), log))
        self._run_until(sim, 20)
        assert [name for cycle, name in log if cycle == 11] == ["a", "b", "c"]


class TestFailureParity:
    def test_deadlock_fires_at_same_cycle(self):
        # zero components, and several all parked on NEVER: the event
        # engine has no wake cycle to jump to and must neither crash
        # nor spin
        for consumers in (0, 1, 3):
            cycles = {}
            for engine in ENGINES:
                sim = Simulator(engine=engine)
                for i in range(consumers):  # each starves forever
                    ch = sim.add_channel(f"pc{i}", capacity=1)
                    sim.add_component(EventConsumer(f"c{i}", ch))
                with pytest.raises(DeadlockError) as excinfo:
                    sim.run(lambda: False, max_cycles=DEADLOCK_WINDOW * 3)
                cycles[engine] = excinfo.value.cycle
            assert cycles["dense"] == cycles["event"] == DEADLOCK_WINDOW + 1

    def test_livelock_fires_at_same_cycle(self):
        class BusyRetrier(Component):
            def __init__(self, name, out):
                super().__init__(name)
                self.out = out

            def tick(self, cycle):
                if self.out.can_push():
                    self.out.push("x")

            def is_busy(self):
                return True

        outcomes = {}
        for engine in ENGINES:
            sim = Simulator(engine=engine)
            ch = sim.add_channel("r.out", capacity=1)
            sim.add_component(BusyRetrier("r", ch))
            with pytest.raises(DeadlockError, match="livelock") as excinfo:
                sim.run(lambda: False, max_cycles=STALL_WINDOW * 2)
            outcomes[engine] = (excinfo.value.cycle,
                                [c["name"] for c in
                                 excinfo.value.postmortem["stalled"]])
        assert outcomes["dense"] == outcomes["event"]

    def test_timeout_fires_at_same_cycle(self):
        for engine in ENGINES:
            sim = Simulator(engine=engine)
            ch = sim.add_channel("t", capacity=1)
            sim.add_component(Timer("timer", ch, fire_at=10_000))
            with pytest.raises(SimulationError, match="exceeded"):
                sim.run(lambda: False, max_cycles=500)
            assert sim.cycle == 500, engine


class TestEngineStats:
    def test_engine_stats_keys(self):
        sim, consumer = _build("event")
        sim.run(lambda: len(consumer.received) == 50, max_cycles=1000)
        engine = sim.engine_stats()
        assert set(engine) == {
            "name", "host_seconds", "sim_cycles_per_host_second",
            "cycles_simulated", "ticks_executed", "component_ticks",
            "fast_forwarded_cycles"}
        assert engine["name"] == "event"
        assert engine["host_seconds"] >= 0
        assert engine["cycles_simulated"] == sim.cycle
        assert engine["sim_cycles_per_host_second"] is None \
            or engine["sim_cycles_per_host_second"] > 0

    def test_stats_reports_every_component(self):
        class Mute(Component):
            def tick(self, cycle):
                pass

        sim = Simulator(engine="event")
        sim.add_component(Mute("quiet"))
        with pytest.raises(DeadlockError):
            sim.run(lambda: False, max_cycles=DEADLOCK_WINDOW * 2)
        stats = sim.stats()
        assert stats["cycles"] == sim.cycle
        assert "quiet" in stats  # empty stats dict still reported
        assert stats["quiet"] == {}


class TestObserverSynthesis:
    def _run_observed(self, engine, fire_at=800):
        sim = Simulator(engine=engine)
        observer = Observer()
        sim.attach_observer(observer)
        ch = sim.add_channel("t", capacity=1)
        sim.add_component(Timer("timer", ch, fire_at=fire_at))
        consumer = sim.add_component(EventConsumer("c", ch))
        cycles = sim.run(lambda: consumer.received == ["late"],
                         max_cycles=5000)
        return cycles, observer

    def test_quiet_span_synthesis_matches_dense(self):
        cd, od = self._run_observed("dense")
        ce, oe = self._run_observed("event")
        assert cd == ce
        assert od.as_dict() == oe.as_dict()
        for name, ledger in od.ledgers.items():
            assert ledger.timeline == oe.ledgers[name].timeline, name
        for name, probe in od.probes.items():
            assert probe.occupancy_timeline == \
                oe.probes[name].occupancy_timeline, name

    def test_observer_sees_every_cycle(self):
        cycles, observer = self._run_observed("event")
        assert observer.cycles_observed == cycles
        assert observer.first_cycle == 0
        assert observer.last_cycle == cycles - 1

    def test_third_party_observer_gets_per_cycle_replay(self):
        """An observer without on_change still sees one on_cycle call
        per simulated cycle, in order, fast-forwarded spans included."""

        class MinimalObserver:
            def __init__(self):
                self.cycles = []

            def on_cycle(self, sim, cycle):
                self.cycles.append(cycle)

        sim = Simulator(engine="event")
        observer = MinimalObserver()
        sim.attach_observer(observer)
        ch = sim.add_channel("t", capacity=1)
        sim.add_component(Timer("timer", ch, fire_at=300))
        consumer = sim.add_component(EventConsumer("c", ch))
        cycles = sim.run(lambda: consumer.received == ["late"],
                         max_cycles=2000)
        assert observer.cycles == list(range(cycles))
