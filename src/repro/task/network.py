"""The inter-unit spawn/join network.

The paper wires task units point-to-point (Fig 4's generated Chisel); a
shared arbitrated network is timing-equivalent at these scales and keeps
the topology independent of the task graph — any unit can spawn any other
unit, which is what makes heterogeneous/recursive graphs compose (the SID
"serves as the network id of the parent task unit to route back on a
join", §III-B).
"""

from __future__ import annotations

from typing import List

from repro.memory.arbiter import Demux, RoundRobinArbiter, tree_levels
from repro.sim import Channel, Simulator


class TaskNetwork:
    """Spawn and join crossbars over ``num_units`` task units.

    Exposes per-unit channel pairs plus a host injection port used by the
    runtime to start the root task.
    """

    def __init__(self, sim: Simulator, name: str, num_units: int):
        self.name = name
        self.num_units = num_units

        self.spawn_out: List[Channel] = [
            sim.add_channel(f"{name}.u{i}.spawn_out", 2) for i in range(num_units)]
        self.spawn_in: List[Channel] = [
            sim.add_channel(f"{name}.u{i}.spawn_in", 2) for i in range(num_units)]
        self.join_out: List[Channel] = [
            sim.add_channel(f"{name}.u{i}.join_out", 2) for i in range(num_units)]
        self.join_in: List[Channel] = [
            sim.add_channel(f"{name}.u{i}.join_in", 2) for i in range(num_units)]
        #: host-side injection of the root spawn
        self.host_spawn: Channel = sim.add_channel(f"{name}.host_spawn", 2)

        spawn_merged = sim.add_channel(f"{name}.spawn_merged", 2)
        join_merged = sim.add_channel(f"{name}.join_merged", 2)
        levels = tree_levels(num_units + 1)

        self.spawn_arbiter = sim.add_component(RoundRobinArbiter(
            f"{name}.spawn_arb", self.spawn_out + [self.host_spawn],
            spawn_merged, levels=levels))
        self.spawn_demux = sim.add_component(Demux(
            f"{name}.spawn_demux", spawn_merged, self.spawn_in,
            levels=levels, route=lambda m: m.dest_sid))
        self.join_arbiter = sim.add_component(RoundRobinArbiter(
            f"{name}.join_arb", self.join_out, join_merged, levels=levels))
        self.join_demux = sim.add_component(Demux(
            f"{name}.join_demux", join_merged, self.join_in,
            levels=levels, route=lambda m: m.parent_sid))

    def stats(self):
        return {
            "spawns_routed": self.spawn_demux.stats()["routed"],
            "joins_routed": self.join_demux.stats()["routed"],
        }
