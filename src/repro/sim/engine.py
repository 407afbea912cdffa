"""The cycle engine: a two-phase clock over components and channels.

Three engines share one contract:

* ``engine="dense"`` — the original oracle loop: every component ticks
  and every channel commits on every cycle.
* ``engine="compiled"`` (:data:`DEFAULT_ENGINE`) — a per-design
  specialized kernel: a codegen pass (:mod:`repro.sim.compile`) flattens
  the elaborated netlist into one generated Python module with inlined
  handshakes and per-component tick bodies specialized on their static
  configuration, ``exec``'d and cached content-addressed by design
  fingerprint. A change-driven observer and analysis traces are
  generated into the kernel, and so is host-time attribution; what the
  codegen does not support (``on_cycle``-only observers, unknown
  component classes) runs on the dense oracle instead
  (``Simulator.compiled_fallback`` records why).
* ``engine="event"`` — one wake-cycle scan, run only when named. Components
  declare *sensitivity* (the channels they read/write) and an optional
  self-wake timer (:meth:`Component.next_wake`). Each cycle the engine
  walks the components in registration order, ticks those whose wake
  cycle has arrived and stores ``next_wake()`` back as the new wake
  cycle; a channel ``commit()`` that moved data wakes its subscribers
  for the following cycle. When nothing is due and no channel is
  pending (DRAM in flight, cache fills counting down) the clock jumps
  straight to the earliest wake cycle — *quiescent fast-forward*.

The contract between them is **bit-identical cycle counts and stats**:
TAPAS designs are latency-insensitive (every inter-block interface is a
registered ready/valid handshake, reads observe start-of-cycle state),
so a tick of a component whose inputs did not change and whose timers
have not expired is a pure no-op, and skipping it cannot be observed.
Components that do not implement the sensitivity contract default to
being woken every cycle, which degrades to dense behaviour and is
therefore always safe. Differential tests over every example program and
benchmark config enforce the bit-identity.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List

from repro.errors import DeadlockError, SimulationError
from repro.sim.channel import Channel
from repro.sim.component import NEVER, Component

#: cycles of total inactivity tolerated before declaring deadlock; must
#: exceed the worst-case quiet period of any component (DRAM latency).
DEADLOCK_WINDOW = 2048

#: cycles without ANY channel movement tolerated even while components
#: report busy — catches livelocks where stalled units retry forever
#: (e.g. a task-queue-full circular wait in deep recursion).
STALL_WINDOW = 32768

ENGINES = ("event", "dense", "compiled")

#: the engine every layer (Simulator, AcceleratorConfig, sweep specs, the
#: CLI) uses when none is named
DEFAULT_ENGINE = "compiled"

#: upper bound on recorded movement-log entries (`repro diff` first-
#: divergence reporting); beyond this the log stops growing and the
#: divergence is reported as "past the recorded window"
MOVEMENT_LOG_CAP = 1_000_000


class Simulator:
    """Owns the clock, all components and all channels."""

    def __init__(self, name: str = "sim", engine: str = DEFAULT_ENGINE):
        if engine not in ENGINES:
            raise SimulationError(
                f"unknown engine {engine!r} (expected one of {ENGINES})")
        self.name = name
        self.engine = engine
        self.cycle = 0
        self.components: List[Component] = []
        self.channels: List[Channel] = []
        self._idle_cycles = 0
        self._quiet_cycles = 0  # no channel movement, busy or not
        self._activity_flag = False
        #: optional sampler (repro.obs.Observer); None keeps the hot loop
        #: at a single pointer test per cycle
        self.observer = None
        self._on_change = None  # its change-driven hook, bound per run
        #: optional host-time attribution (repro.telemetry.HostProfiler),
        #: read by the compiled engine's code generator only
        self.host_profile = None
        #: optional movement trace for differential debugging: when set to
        #: a list, every cycle with channel movement appends
        #: ``(cycle, (sorted channel names...))`` — identical across
        #: engines, so `repro diff` can report the first divergent cycle
        self._movement_log = None
        #: why the compiled engine ran the last run on the dense oracle
        #: (None = ran compiled, or engine != "compiled")
        self.compiled_fallback = None
        # -- event-engine state ------------------------------------------
        #: channels with a pending push/pop this cycle (self-registered)
        self._dirty_channels: List[Channel] = []
        self._finalized_shape = (-1, -1)      # (n components, n channels)
        #: channel -> (its bit, its subscribers' bits), for on_change
        self._observed_bits: dict = {}
        # -- host wall-clock accounting ----------------------------------
        self.host_seconds = 0.0
        self._cycles_simulated = 0
        self._ticks_executed = 0
        self._component_ticks = 0
        self._fast_forwarded_cycles = 0

    # -- construction -----------------------------------------------------

    def add_component(self, component: Component) -> Component:
        component.sim = self
        component._wake_cycle = NEVER
        self.components.append(component)
        return component

    def add_channel(self, name: str, capacity: int = 2) -> Channel:
        channel = Channel(name, capacity)
        channel.sim = self
        self.channels.append(channel)
        return channel

    def attach_observer(self, observer):
        """Install a sampler (see :mod:`repro.obs`). It must define
        ``on_cycle(sim, cycle)``; ``on_change`` plus ``flush`` are opt-in."""
        self.observer = observer
        return observer

    def enable_movement_log(self) -> list:
        """Record ``(cycle, (sorted channel names...))`` for every cycle
        with committed channel movement. Bit-identical across all three
        engines, so two logs diverge exactly at the first cycle two runs
        disagree — ``repro diff`` uses this to attribute a divergence to
        a channel and its driving component. Capped at
        :data:`MOVEMENT_LOG_CAP` entries."""
        if self._movement_log is None:
            self._movement_log = []
        return self._movement_log

    def enable_host_profile(self):
        """Install per-component-class host-time attribution (see
        :mod:`repro.telemetry.hostprof`): compiled runs generate a profiled
        kernel; the reference engines report wall time only."""
        from repro.telemetry.hostprof import HostProfiler

        return HostProfiler().install(self)

    # -- clock ---------------------------------------------------------------

    def note_activity(self):
        """Components call this when they make internal progress that does
        not show up as channel traffic (e.g. register-only dataflow firings),
        so livelock detection doesn't misfire on long compute loops."""
        self._activity_flag = True

    def tick(self):
        """Advance one cycle densely: all components observe start-of-cycle
        channel state, then every channel commits its handshake. This is
        the oracle step — always correct for either engine (over-waking a
        quiescent component is a no-op)."""
        executed = self.cycle
        components = self.components
        for component in components:
            component.tick(executed)
        self._ticks_executed += 1
        self._component_ticks += len(components)
        moved = False
        log = self._movement_log
        names = None if log is None else []
        for channel in self.channels:
            if channel.commit():
                moved = True
                if names is not None:
                    names.append(channel.name)
        if names and len(log) < MOVEMENT_LOG_CAP:
            log.append((executed, tuple(sorted(names))))
        self._dirty_channels.clear()
        self.cycle += 1
        self._account(moved)
        if self.observer is not None:
            self.observer.on_cycle(self, executed)

    def _account(self, moved: bool):
        """Shared post-commit bookkeeping for both engines."""
        if moved or self._activity_flag:
            self._quiet_cycles = 0
        else:
            self._quiet_cycles += 1
        self._activity_flag = False
        if moved or any(c.is_busy() for c in self.components):
            self._idle_cycles = 0
        else:
            self._idle_cycles += 1

    def run(self, done: Callable[[], bool], max_cycles: int = 10_000_000) -> int:
        """Run until ``done()`` is true; returns the cycle count.

        ``done`` must be a pure function of simulation state (the event
        engine only evaluates it when state can have changed). Raises
        :class:`DeadlockError` if nothing moves for a full inactivity
        window, and :class:`SimulationError` on timeout.
        """
        start = self.cycle
        self._on_change = getattr(self.observer, "on_change", None)
        t0 = time.perf_counter()
        try:
            if self.engine == "dense":
                self._run_dense(done, start, max_cycles)
            elif self.engine == "compiled":
                self._run_compiled(done, start, max_cycles)
            else:
                self._run_event(done, start, max_cycles)
        finally:
            if self._on_change is not None:  # book the observer's open runs
                self.observer.flush(self)
            self.host_seconds += time.perf_counter() - t0
            self._cycles_simulated += self.cycle - start
        return self.cycle - start

    def _check_stalls(self):
        if self._idle_cycles > DEADLOCK_WINDOW:
            raise DeadlockError(self.cycle, self._describe_stall(),
                                postmortem=self.postmortem())
        if self._quiet_cycles > STALL_WINDOW:
            raise DeadlockError(
                self.cycle,
                "components busy but no channel movement (livelock — "
                "likely a task-queue-full circular wait; increase "
                "queue_depth). " + self._describe_stall(),
                postmortem=self.postmortem())

    def _run_dense(self, done, start, max_cycles):
        # hoist the per-cycle lookups out of the loop: the dense engine
        # runs this pair once per simulated cycle
        tick = self.tick
        check = self._check_stalls
        limit = start + max_cycles
        while not done():
            if self.cycle >= limit:
                raise SimulationError(
                    f"simulation exceeded {max_cycles} cycles without finishing")
            tick()
            check()

    # -- the compiled kernel -------------------------------------------------

    def _run_compiled(self, done, start, max_cycles):
        """Run the design through its generated per-design kernel.

        The codegen pass lives in :mod:`repro.sim.compile`. An observer
        with ``on_change`` (bound to ``_on_change`` by :meth:`run`, which
        also flushes it) and traced task units are part of the generated
        text, and so is a host profiler's clock (which books this call's
        kernel load as ``kernel.load``); what it cannot specialize
        (observers with only ``on_cycle``, unrecognized component
        classes) runs on the dense oracle — total and
        bit-identical, just slower — with the reason recorded in
        :attr:`compiled_fallback`."""
        from repro.sim.compile import prepare_kernel

        loading = time.perf_counter_ns()
        kernel, self.compiled_fallback = prepare_kernel(self)
        if kernel is None:
            self._run_dense(done, start, max_cycles)
            return
        if self.host_profile is not None:  # generation and compile when cold
            self.host_profile.add(("kernel.load",), (time.perf_counter_ns() - loading,))
        kernel(self, done, start, max_cycles, self._movement_log)

    @property
    def executed_engine(self) -> str:
        """The engine the last run executed on: dense when the compiled
        engine declined the design (:attr:`compiled_fallback` says why)."""
        return "dense" if self.compiled_fallback is not None else self.engine

    # -- the event-driven kernel -------------------------------------------

    def _finalize_event(self):
        """(Re)build the channel-subscription map. A component whose
        sensitivity() is None — or that watches a channel this simulator
        does not own — is not event-aware: it subscribes to nothing and
        is woken every cycle, which is exactly the dense engine's
        behaviour. Subscriber lists are deduplicated so a channel named
        twice in a sensitivity set wakes its component once."""
        for channel in self.channels:
            channel._subscribers = []
        for component in self.components:
            declared = component.sensitivity()
            channels = () if declared is None else dict.fromkeys(declared)
            aware = (declared is not None
                     and all(ch.sim is self for ch in channels))
            component._event_aware = aware
            if aware:
                for channel in channels:
                    channel._subscribers.append(component)
        # what a change-driven observer is handed, as bit sets over
        # registration order: per channel, its own bit and its subscribers'
        bit = {component: 1 << i for i, component in enumerate(self.components)}
        self._observed_bits = {
            channel: (1 << j, sum(bit[c] for c in channel._subscribers))
            for j, channel in enumerate(self.channels)}
        self._finalized_shape = (len(self.components), len(self.channels))

    def _tick_event(self) -> bool:
        """One event-driven cycle: tick every component whose wake cycle
        has arrived (registration order, for deterministic trace/obs
        output), store its next wake, commit the dirty channels and wake
        their subscribers. Returns whether any component is due on the
        following cycle."""
        executed = self.cycle
        next_cycle = executed + 1
        ticked = 0
        due = False
        observer = self.observer
        if observer is not None:
            sampled = 0
            for i, component in enumerate(self.components):
                if component._wake_cycle <= executed:
                    sampled |= 1 << i
        for component in self.components:
            if component._wake_cycle <= executed:
                component.tick(executed)
                ticked += 1
                wake = (component.next_wake(executed)
                        if component._event_aware else next_cycle)
                component._wake_cycle = wake
                if wake <= next_cycle:
                    due = True
        self._ticks_executed += 1
        self._component_ticks += ticked

        moved = False
        dirty = self._dirty_channels
        if dirty:
            log = self._movement_log
            names = None if log is None else []
            self._dirty_channels = []
            for channel in dirty:
                if channel.commit():
                    moved = True
                    if names is not None:
                        names.append(channel.name)
                    for subscriber in channel._subscribers:
                        if next_cycle < subscriber._wake_cycle:
                            subscriber._wake_cycle = next_cycle
                            due = True
            if names and len(log) < MOVEMENT_LOG_CAP:
                log.append((executed, tuple(sorted(names))))
        self.cycle = next_cycle
        self._account(moved)
        if observer is not None:
            if self._on_change is None:  # third-party: the per-cycle view
                observer.on_cycle(self, executed)
            else:  # whoever ticked, or watches a channel that committed
                committed = 0
                bits = self._observed_bits
                for channel in dirty:
                    own, watchers = bits[channel]
                    committed |= own
                    sampled |= watchers
                self._on_change(self, executed, sampled, committed)
        return due

    def _fast_forward(self, start, max_cycles) -> bool:
        """No component is due and no channel is pending: nothing can
        change until the earliest wake cycle. Jump the clock there in one
        step, stopping early at any deadlock/livelock/timeout boundary so
        those still fire at exactly the dense engine's cycle. Returns
        whether a component is due at the cycle the clock now stands on."""
        target = min((c._wake_cycle for c in self.components), default=NEVER)
        # timeout boundary (checked at the run-loop top)
        target = min(target, start + max_cycles)
        # during the span nothing moves and no state changes, so the
        # inactivity counters advance linearly — stop where they trip
        busy = any(c.is_busy() for c in self.components)
        if not busy:
            target = min(target,
                         self.cycle + DEADLOCK_WINDOW + 1 - self._idle_cycles)
        target = min(target,
                     self.cycle + STALL_WINDOW + 1 - self._quiet_cycles)
        span = target - self.cycle
        if span <= 0:  # a wake is due right now — run a normal cycle
            return self._tick_event()
        first_skipped = self.cycle
        self.cycle = target
        self._quiet_cycles += span
        if not busy:
            self._idle_cycles += span
        self._fast_forwarded_cycles += span
        # nothing ticked and nothing moved, so a change-driven observer's
        # open runs simply extend; a third-party one gets an exact replay
        if self.observer is not None and self._on_change is None:
            for cyc in range(first_skipped, target):
                self.observer.on_cycle(self, cyc)
        # the clock stands on a wake cycle, or on a stall/timeout
        # boundary that raises before the next tick
        return True

    def _run_event(self, done, start, max_cycles):
        if self._finalized_shape != (len(self.components), len(self.channels)):
            self._finalize_event()
        # universal first wake: captures externally staged pushes (the
        # host spawn) and matches the dense engine's universal first
        # tick. Over-waking a quiescent component is a no-op; timers
        # re-arm via next_wake() after the woken tick.
        for component in self.components:
            component._wake_cycle = self.cycle
        due = True
        tick = self._tick_event
        check = self._check_stalls
        limit = start + max_cycles
        while not done():
            if self.cycle >= limit:
                raise SimulationError(
                    f"simulation exceeded {max_cycles} cycles without finishing")
            if due or self._dirty_channels:
                due = tick()
            else:
                due = self._fast_forward(start, max_cycles)
            check()

    def postmortem(self) -> dict:
        """Per-component stall attribution plus stuck-channel inventory —
        the deadlock post-mortem attached to :class:`DeadlockError`."""
        from repro.obs.observer import stall_snapshot

        return stall_snapshot(self)

    def _describe_stall(self) -> str:
        from repro.obs.observer import render_stall_snapshot

        return render_stall_snapshot(self.postmortem())

    # -- reporting --------------------------------------------------------

    def engine_stats(self) -> Dict[str, object]:
        """Host-side performance of the simulation itself (never part of
        the bit-identical architectural stats)."""
        seconds = self.host_seconds
        stats = {
            "name": self.engine,
            "host_seconds": round(seconds, 6),
            "sim_cycles_per_host_second":
                round(self._cycles_simulated / seconds) if seconds > 0 else None,
            "cycles_simulated": self._cycles_simulated,
            "ticks_executed": self._ticks_executed,
            "component_ticks": self._component_ticks,
            "fast_forwarded_cycles": self._fast_forwarded_cycles,
        }
        if self.engine == "compiled":
            stats["compiled_fallback"] = self.compiled_fallback
            # TXU stepper calls made, and steps skipped because the instance
            # was parked on a resource that stayed taken
            tiles = [tile for component in self.components
                     for tile in getattr(component, "tiles", ())]
            stats["instance_steps"] = sum(t.instance_steps for t in tiles)
            stats["parked_skips"] = sum(t.parked_skips for t in tiles)
        return stats

    def stats(self) -> Dict[str, dict]:
        """Architectural stats plus engine metadata.

        Every component is reported (even when its own counters are empty
        — its channels may still have moved), alongside the unconditional
        ``cycles`` and ``engine`` keys. Everything except ``engine`` is
        bit-identical across engines.
        """
        out: Dict[str, dict] = {
            "cycles": self.cycle,
            "engine": self.engine_stats(),
        }
        for component in self.components:
            out[component.name] = component.stats()
        channels = self.channel_stats()
        if channels:
            out["channels"] = channels
        return out

    def channel_stats(self) -> Dict[str, dict]:
        """Traffic totals of every channel that has moved a message."""
        return {
            ch.name: {"pushed": ch.total_pushed, "popped": ch.total_popped,
                      "capacity": ch.capacity, "occupancy": ch.occupancy}
            for ch in self.channels if ch.total_pushed or ch.total_popped
        }

    def __repr__(self):
        return (f"<Simulator {self.name} engine={self.engine} "
                f"cycle={self.cycle} {len(self.components)} components>")
