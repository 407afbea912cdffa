"""The emitted Verilog top is the elaborated netlist.

Each top is parsed back into ``(instance, port, wire)`` triples and
per-instance parameters and held to ``build_channel_graph`` of the
``Accelerator`` elaborated from the same design and config, over the 84
configurations of the engine grid: one instance per component, one wire
per channel, one top-level port per external channel, the same endpoints
on every channel and the parameter values ``TEMPLATES`` reads off each
component, the demuxes' route keys included (``grid_corpus.outcome``
holds every message a demux routes to the key ``TEMPLATES`` reads).
Nothing is simulated.
"""

import json
import re

import pytest

from repro.accel import Accelerator, generate
from repro.analysis.netlist import build_channel_graph
from repro.rtl import LIBRARY, emit_top_verilog
from repro.rtl.components import TEMPLATES
from repro.workloads import REGISTRY

from tests.sim.grid_corpus import GRID, MEMORIES, grid_id

#: the library module of every elaborated component class
MODULES = {"TaskUnit": "taskunit", "DataBox": "databox",
           "RoundRobinArbiter": "arbiter", "Demux": "demux",
           "Cache": "cache", "DRAMModel": "nastimemslave",
           "Scratchpad": "scratchpad"}
INSTANCE = re.compile(r"^  tapas_(\w+) #\((.*)\) (\w+) \(\n((?:    .*\n)+)", re.M)
CONNECTION = re.compile(r"\.(\w+)\((\w+)\)")
#: ``.NAME(value)`` of a ``#(...)`` list; a value is an integer or a string
PARAMETER = re.compile(r'\.(\w+)\((-?\d+|"[^"]*")\)')


def _name(text):
    return re.sub(r"\W", "_", text)


def _parse_top(text):
    """``(ports, wires, instances, triples, parameters)`` of the top module;
    ``parameters[instance]`` lists ``(NAME, value)`` in printed order."""
    top = text[:text.index("endmodule")]
    header, body = top.split(");\n", 1)
    ports = {name: kind for kind, name in
             re.findall(r"^  (input|output) +wire (\w+)", header, re.M)}
    assert ports.pop("clock") == ports.pop("reset") == "input"
    wires = re.findall(r"^  wire (\w+);$", body, re.M)
    instances, triples, parameters = {}, set(), {}
    for module, params, instance, connections in INSTANCE.findall(body):
        assert instance not in instances, f"{instance} instantiated twice"
        instances[instance] = module
        parameters[instance] = [(name, json.loads(value))
                                for name, value in PARAMETER.findall(params)]
        assert ", ".join(".%s(%s)" % (name, json.dumps(value))
                         for name, value in parameters[instance]) == params
        for port, wire in CONNECTION.findall(connections):
            if port not in ("clock", "reset"):
                triples.add((instance, port, wire))
    return ports, wires, instances, triples, parameters


def _verilog_name(param):
    """``RouteField`` -> ``ROUTE_FIELD``."""
    return re.sub(r"([a-z])([A-Z])", r"\1_\2", param).upper()


def _channel_graph(acc):
    """The same five views, read off the elaborated channel graph and the
    component library."""
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
    parameters = {}
    for component in graph.components:
        module, values = TEMPLATES[type(component)]
        parameters[_name(component.name)] = [
            (_verilog_name(param), value)
            for param, value in zip(LIBRARY[module].params, values(component))]
    # the naming is a bijection: no two components or channels share a name
    assert len(instances) == len(graph.components)
    assert len(set(wires)) + len(ports) == len(graph.channels)
    assert not set(instances) & (set(wires) | set(ports))
    return ports, wires, instances, triples, parameters


@pytest.mark.parametrize("point", GRID, ids=lambda point: grid_id(*point))
def test_verilog_top_is_the_channel_graph(point):
    name, tiles, memory = point
    workload = REGISTRY.get(name)
    config = workload.default_config(tiles, **MEMORIES[memory])
    design = generate(workload.fresh_module())
    printed = _parse_top(emit_top_verilog(design, config))
    assert printed == _channel_graph(Accelerator(design, config))
