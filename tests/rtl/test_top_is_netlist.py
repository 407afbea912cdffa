"""The emitted Verilog top is the elaborated netlist.

Each top is parsed back into ``(instance, port, wire)`` triples and held
to ``build_channel_graph`` of the ``Accelerator`` elaborated from the same
design and config, over the 84 configurations of the engine grid: one
instance per component, one wire per channel, one top-level port per
external channel, and the same endpoints on every channel. Nothing is
simulated.
"""

import re

import pytest

from repro.accel import Accelerator, generate
from repro.analysis.netlist import build_channel_graph
from repro.rtl import emit_top_verilog
from repro.workloads import REGISTRY

from tests.sim.grid_corpus import GRID, MEMORIES, grid_id

#: the library module of every elaborated component class
MODULES = {"TaskUnit": "taskunit", "DataBox": "databox",
           "RoundRobinArbiter": "arbiter", "Demux": "demux",
           "Cache": "cache", "DRAMModel": "nastimemslave",
           "Scratchpad": "scratchpad"}
INSTANCE = re.compile(r"^  tapas_(\w+) #\(.*\) (\w+) \(\n((?:    .*\n)+)", re.M)
CONNECTION = re.compile(r"\.(\w+)\((\w+)\)")


def _name(text):
    return re.sub(r"\W", "_", text)


def _parse_top(text):
    """``(ports, wires, instances, triples)`` of the top module."""
    top = text[:text.index("endmodule")]
    header, body = top.split(");\n", 1)
    ports = {name: kind for kind, name in
             re.findall(r"^  (input|output) +wire (\w+)", header, re.M)}
    assert ports.pop("clock") == ports.pop("reset") == "input"
    wires = re.findall(r"^  wire (\w+);$", body, re.M)
    instances, triples = {}, set()
    for module, instance, connections in INSTANCE.findall(body):
        assert instance not in instances, f"{instance} instantiated twice"
        instances[instance] = module
        for port, wire in CONNECTION.findall(connections):
            if port not in ("clock", "reset"):
                triples.add((instance, port, wire))
    return ports, wires, instances, triples


def _channel_graph(acc):
    """The same four views, read off the elaborated channel graph."""
    graph = build_channel_graph(acc.sim, external=[acc.network.host_spawn])
    assert not graph.opaque
    ports = {_name(ch.name): "input" if ch in graph.consumers else "output"
             for ch in graph.channels if ch in graph.external}
    wires = [_name(ch.name) for ch in graph.channels
             if ch not in graph.external]
    instances = {_name(c.name): MODULES[type(c).__name__]
                 for c in graph.components}
    triples = set()
    for component in graph.components:
        inputs, outputs = component.ports()
        for direction, channels in (("in", inputs), ("out", outputs)):
            triples.update((_name(component.name), f"{direction}{i}",
                            _name(ch.name)) for i, ch in enumerate(channels))
    # the naming is a bijection: no two components or channels share a name
    assert len(instances) == len(graph.components)
    assert len(set(wires)) + len(ports) == len(graph.channels)
    assert not set(instances) & (set(wires) | set(ports))
    return ports, wires, instances, triples


@pytest.mark.parametrize("point", GRID, ids=lambda point: grid_id(*point))
def test_verilog_top_is_the_channel_graph(point):
    name, tiles, memory = point
    workload = REGISTRY.get(name)
    config = workload.default_config(tiles, **MEMORIES[memory])
    design = generate(workload.fresh_module())
    printed = _parse_top(emit_top_verilog(design, config))
    assert printed == _channel_graph(Accelerator(design, config))
