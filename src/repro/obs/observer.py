"""The observer: samples the simulator where it changed.

Attach with :meth:`repro.sim.engine.Simulator.attach_observer` (or pass
``observer=`` to :func:`repro.accel.build_accelerator`). When no observer
is attached the engine's hot loop contains a single ``is None`` test, and
component classification code never runs — observability off is free, and
cycle counts are bit-identical either way.

Sampling contract: a component's ``obs_classify`` can differ from the
previous cycle's only if it ticked this cycle or one of its
``sensitivity()`` channels committed, a channel's occupancy only if it
committed. The default compiled kernel hands :meth:`Observer.on_change`
just those after each commit, as bit sets over registration order (the
event engine, run only when named, makes the same call); the dense
engine, the oracle, samples everything every cycle. All give identical views once ``Simulator.run`` has
flushed the change logs.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Tuple

from repro.obs.accounting import ChannelProbe, CycleLedger
from repro.sim.component import OBS_BUSY, OBS_STALL_IN, OBS_STALL_OUT


class Observer:
    """Change-driven sampler building ledgers and channel probes.

    The first sample after a registration covers everything and binds, once
    per netlist, each component to its bound ``obs_classify`` and its ledger
    (a task unit also to its ``obs_children`` and its tiles' ledgers) and
    each channel to its probe and item queue, so late registrations are
    picked up and a sample is one classification.
    """

    def __init__(self):
        self.ledgers: Dict[str, CycleLedger] = {}
        self.probes: Dict[str, ChannelProbe] = {}
        self.cycles_observed = 0
        self.first_cycle: Optional[int] = None
        self.last_cycle: Optional[int] = None
        self._shape = None  # (components, channels) when last bound
        #: per component in registration order, ``(obs_classify, ledger,
        #: the appends of its change log's two columns)``, and for one with
        #: children also ``obs_children``, its tiles' ledgers and ``[the
        #: children last sampled]``
        self._components: list = []
        #: per channel in registration order, ``(probe, its item queue, the
        #: appends of its change log's two columns)``
        self._channels: list = []
        #: a bit set handed to :meth:`on_change` -> the bound entries it
        #: names, ``(without children, with children)``; and of channels
        self._component_sets: dict = {}
        self._channel_sets: dict = {}

    # -- engine interface --------------------------------------------------

    def on_cycle(self, sim, cycle: int):
        """Sample everything — what the dense engine calls every cycle."""
        self.on_change(sim, cycle, -1, -1)

    def on_change(self, sim, cycle: int, components: int, channels: int):
        """Sample the components that ticked or saw a sensitivity channel
        commit in ``cycle`` and the channels that committed; the rest
        extend their open runs. Both are bit sets over registration order
        (bit ``i`` of ``components`` names ``sim.components[i]``; -1 names
        everything). Over-sampling is harmless."""
        if (len(sim.components), len(sim.channels)) != self._shape:
            self._bind(sim, cycle)  # also true of the very first sample
            components = channels = -1
        sampled = self._component_sets.get(components)
        if sampled is None:
            chosen = self._select(self._components, components)
            sampled = self._component_sets[components] = (
                tuple(entry for entry in chosen if len(entry) == 4),
                tuple(entry for entry in chosen if len(entry) != 4))
        plain, parents = sampled
        for classify, ledger, log_cycle, log_value in plain:
            now = classify(cycle)
            if now != ledger.current:
                ledger.current = now
                log_cycle(cycle)
                log_value(now)
        for classify, ledger, log_cycle, log_value, children_of, tiles, seen in parents:
            now = classify(cycle)
            if now != ledger.current:
                ledger.current = now
                log_cycle(cycle)
                log_value(now)
            children = children_of(cycle)  # what classify built
            if children is not seen[0]:  # a unit keeps an unchanged list
                seen[0] = children
                for tile, (_, state, reason) in zip(tiles, children):
                    now = tile.current
                    if now is None or state != now[0] or reason != now[1]:
                        now = (state, reason)
                        tile.current = now
                        tile.log_cycles.append(cycle)
                        tile.log_values.append(now)
        probes = self._channel_sets.get(channels)
        if probes is None:
            probes = self._channel_sets[channels] = self._select(
                self._channels, channels)
        for probe, queue, log_cycle, log_value in probes:
            now = len(queue)
            if now != probe.current:
                probe.current = now
                log_cycle(cycle)
                log_value(now)

    @staticmethod
    def _select(entries: list, bits: int) -> tuple:
        """The entries the bit set ``bits`` names, in registration order."""
        if bits < 0:
            return tuple(entries)
        chosen = []
        while bits:
            low = bits & -bits
            chosen.append(entries[low.bit_length() - 1])
            bits ^= low
        return tuple(chosen)

    def _bind(self, sim, cycle: int):
        self._shape = (len(sim.components), len(sim.channels))
        self._components = []
        for component in sim.components:
            group = component.name
            names = [group, *(n for n, _, _ in component.obs_children(cycle))]
            ledger, *tiles = [self.ledgers.setdefault(n, CycleLedger(n, group))
                              for n in names]
            entry = (component.obs_classify, ledger, ledger.log_cycles.append,
                     ledger.log_values.append)
            if tiles:
                entry += (component.obs_children, tiles, [None])
            self._components.append(entry)
        self._channels = []
        for channel in sim.channels:
            probe = self.probes.setdefault(channel.name, ChannelProbe(channel))
            self._channels.append((probe, probe.queue, probe.log_cycles.append,
                                   probe.log_values.append))
        self._component_sets.clear()
        self._channel_sets.clear()
        if self.first_cycle is None:
            self.first_cycle = cycle

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
