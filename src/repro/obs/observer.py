"""The observer: samples the simulator where it changed.

Attach with :meth:`repro.sim.engine.Simulator.attach_observer` (or pass
``observer=`` to :func:`repro.accel.build_accelerator`). When no observer
is attached the engine's hot loop contains a single ``is None`` test, and
component classification code never runs — observability off is free, and
cycle counts are bit-identical either way.

Sampling contract: a component's ``obs_classify`` can differ from the
previous cycle's only if it ticked this cycle or one of its
``sensitivity()`` channels committed, a channel's occupancy only if it
committed. The event engine hands :meth:`Observer.on_change` just those;
the dense engine, the oracle, samples everything every cycle. Both give
identical views once ``Simulator.run`` has flushed the open runs.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Tuple

from repro.obs.accounting import ChannelProbe, CycleLedger
from repro.sim.component import OBS_BUSY, OBS_STALL_IN, OBS_STALL_OUT


class Observer:
    """Change-driven sampler building ledgers and channel probes.

    The first sample after a registration covers everything and binds each
    component to its ledger (its subunits to theirs) and channel to its probe,
    so late registrations are picked up and a sample is one classification.
    """

    def __init__(self):
        self.ledgers: Dict[str, CycleLedger] = {}
        self.probes: Dict[str, ChannelProbe] = {}
        self.cycles_observed = 0
        self.first_cycle: Optional[int] = None
        self.last_cycle: Optional[int] = None
        self._shape = None  # (components, channels) when last sampled in full
        self._bound: dict = {}  # component -> (ledger, tile ledgers); channel -> probe

    # -- engine interface --------------------------------------------------

    def on_cycle(self, sim, cycle: int):
        """Sample everything — what the dense engine calls every cycle."""
        self.on_change(sim, cycle, sim.components, sim.channels)

    def on_change(self, sim, cycle: int, components, channels):
        """Sample the ``components`` that ticked or saw a sensitivity
        channel commit in ``cycle`` and the ``channels`` that committed;
        the rest extend their open runs. Over-sampling is harmless."""
        shape = (len(sim.components), len(sim.channels))
        bound = self._bound  # each recorder's ``sample`` is inlined below
        if shape != self._shape:  # also true of the very first sample
            self._shape = shape
            components, channels = sim.components, sim.channels
            for component in components:
                group = component.name
                names = [group, *(n for n, _, _ in component.obs_children(cycle))]
                ledger, *tiles = [self.ledgers.setdefault(n, CycleLedger(n, group))
                                  for n in names]
                bound[component] = (ledger, tiles)
            for channel in channels:
                bound[channel] = self.probes.setdefault(channel.name, ChannelProbe(channel))
            if self.first_cycle is None:
                self.first_cycle = cycle
        for component in components:
            ledger, tiles = bound[component]
            now = component.obs_classify(cycle)
            if now != ledger.current:
                ledger.flush(cycle)
                ledger.current = now
            if tiles:
                for tile, (_, state, reason) in zip(tiles, component.obs_children(cycle)):
                    now = (state, reason)
                    if now != tile.current:
                        tile.flush(cycle)
                        tile.current = now
        for channel in channels:
            probe = bound[channel]
            now = channel.occupancy
            if now != probe.current:
                probe.flush(cycle)
                probe.current = now

    def flush(self, sim):
        """Book every open run up to the simulator's clock: the engine
        calls this when ``run`` returns or raises (do it yourself after
        stepping ``Simulator.tick`` by hand)."""
        if self.first_cycle is None:
            return
        for recorder in (*self.ledgers.values(), *self.probes.values()):
            recorder.flush(sim.cycle)
        self.cycles_observed = sim.cycle - self.first_cycle
        self.last_cycle = sim.cycle - 1

    # -- derived views -----------------------------------------------------

    def component_ledgers(self) -> List[CycleLedger]:
        """Top-level ledgers only (a unit, not its tiles)."""
        return [ledger for ledger in self.ledgers.values()
                if ledger.group == ledger.name]

    def tile_ledgers(self, group: str) -> List[CycleLedger]:
        return [ledger for ledger in self.ledgers.values()
                if ledger.group == group and ledger.name != group]

    def stall_sources(self) -> List[Tuple[str, str, int]]:
        """(component, reason, cycles) sorted by descending cycle cost."""
        out = [(ledger.name, reason, cycles)
               for ledger in self.ledgers.values()
               for reason, cycles in ledger.stall_reasons().items()]
        return sorted(out, key=lambda row: (-row[2], row[0], row[1]))

    def stall_breakdown(self) -> Dict[str, int]:
        """Aggregate stall-reason -> cycles across all components."""
        total: Counter = Counter()
        for ledger in self.ledgers.values():
            total.update(ledger.stall_reasons())
        return dict(total)

    def busiest_channels(self, limit: int = 10) -> List[ChannelProbe]:
        probes = [p for p in self.probes.values()
                  if p.channel.total_pushed or p.backpressure_cycles]
        probes.sort(key=lambda p: (-p.backpressure_cycles,
                                   -p.channel.total_pushed, p.name))
        return probes[:limit]

    def as_dict(self) -> dict:
        return {
            "cycles_observed": self.cycles_observed,
            "components": {name: ledger.as_dict()
                           for name, ledger in sorted(self.ledgers.items())},
            "channels": {name: probe.as_dict()
                         for name, probe in sorted(self.probes.items())
                         if probe.channel.total_pushed},
            "stall_breakdown": self.stall_breakdown(),
        }


def stall_snapshot(sim) -> dict:
    """One-shot classification of the current simulator state.

    Used for deadlock post-mortems: works without an attached observer
    because :meth:`obs_classify` is pure poll-time logic. Returns the
    per-component state/reason attribution plus every channel holding
    stuck data.
    """
    components = [{"name": name, "state": state, "reason": reason}
                  for c in sim.components for name, state, reason in (
                      (c.name, *c.obs_classify(sim.cycle)), *c.obs_children(sim.cycle))]
    channels = [{"name": ch.name, "occupancy": ch.occupancy,
                 "capacity": ch.capacity, "pushed": ch.total_pushed,
                 "popped": ch.total_popped}
                for ch in sim.channels if len(ch)]
    stalled = [c for c in components
               if c["state"] in (OBS_STALL_IN, OBS_STALL_OUT)]
    return {"cycle": sim.cycle, "components": components,
            "stalled": stalled, "channels": channels}


def render_stall_snapshot(snapshot: dict) -> str:
    """Human-readable post-mortem used in DeadlockError messages."""
    parts = []
    stalled = snapshot["stalled"]
    if stalled:
        parts.append("stalled components: " + ", ".join(
            f"{c['name']}[{c['state']}"
            + (f":{c['reason']}" if c["reason"] else "") + "]"
            for c in stalled))
    busy = [c["name"] for c in snapshot["components"]
            if c["state"] == OBS_BUSY]
    if busy:
        parts.append("busy components: " + ", ".join(busy))
    if snapshot["channels"]:
        parts.append("channels with stuck data: " + ", ".join(
            f"{ch['name']}({ch['occupancy']}/{ch['capacity']})"
            for ch in snapshot["channels"]))
    else:
        parts.append("channels with stuck data: none")
    return "; ".join(parts)
