"""The Perfetto export line by line: every line is exactly what the JSON
encoder makes of the event the returned document holds, and what
instrumented runs leave behind matches the digests pinned in
``tests/sim/data/obs_golden.json``."""

import functools
import io
import json

import pytest

from repro.ir import const
from repro.ir.types import I32
from repro.obs import (
    ChannelProbe,
    CycleLedger,
    Observer,
    chrome_trace,
    export_chrome_trace,
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
from repro.telemetry.spans import SpanTracer
from repro.workloads import REGISTRY
from tests.sim.obs_corpus import OBS_GOLDEN, TILES, digests, observed

RUNS = [(name, tiles) for name in REGISTRY.names() for tiles in TILES]
_observed = functools.lru_cache(maxsize=None)(observed)


def _exported_lines_are_encoder_output(**sources):
    """Export ``sources`` and hold each line to the encoder's text for the
    event at the same index of the returned document."""
    buffer = io.StringIO()
    document = export_chrome_trace(buffer, **sources)
    encode = json.JSONEncoder().encode
    events = document["traceEvents"]
    assert events
    lines = buffer.getvalue().split("\n")
    assert lines[0] == '{"traceEvents":['
    assert lines[1:-2] == [encode(e) + "," for e in events[:-1]] + [
        encode(events[-1])]
    rest = {key: value for key, value in document.items()
            if key != "traceEvents"}
    assert lines[-2:] == ["]," + encode(rest)[1:], ""]
    assert chrome_trace(**sources) == document
    return document


@pytest.mark.parametrize("name, tiles", RUNS,
                         ids=[f"{n}@t{t}" for n, t in RUNS])
def test_every_line_is_the_encoders(name, tiles):
    observer, trace = _observed(name, tiles)
    document = _exported_lines_are_encoder_output(observer=observer,
                                                  trace=trace)
    phases = {event["ph"] for event in document["traceEvents"]}
    assert {"M", "X", "C", "i"} <= phases


def test_idle_runs_and_host_spans_are_the_encoders():
    observer, trace = _observed("saxpy", 2)
    spans = SpanTracer(enabled=True)
    with spans.span("compile", module="sä\"x"):
        with spans.span("lower"):
            pass
    document = _exported_lines_are_encoder_output(
        observer=observer, trace=trace, include_idle=True, host_spans=spans)
    assert any(e.get("args", {}).get("state") == OBS_IDLE
               for e in document["traceEvents"])
    assert any(e.get("cat", "").startswith("host:")
               for e in document["traceEvents"])


class Pusher(Component):
    """Fills ``out`` with ``count`` items, stalling for a reason whose
    text needs escaping (and holds a ``%``) while it is full."""

    def __init__(self, name, out, count):
        super().__init__(name)
        self.out = out
        self.count = count

    def tick(self, cycle):
        if self.count and self.out.can_push():
            self.out.push(cycle)
            self.count -= 1

    def obs_classify(self, cycle):
        if not self.count:
            return OBS_IDLE, None
        if not self.out.can_push():
            return OBS_STALL_OUT, 'fu"ll\\ 100% ∞'
        return OBS_BUSY, None


class Popper(Component):
    """Pops ``inp`` every third cycle."""

    def __init__(self, name, inp):
        super().__init__(name)
        self.inp = inp
        self.popped = 0

    def tick(self, cycle):
        if cycle % 3 == 0 and self.inp.can_pop():
            self.inp.pop()
            self.popped += 1

    def obs_classify(self, cycle):
        if self.inp.can_pop():
            return OBS_BUSY, None
        return OBS_STALL_IN, "%s upstream"


def test_hand_built_observer_and_trace_are_the_encoders():
    """Names and reasons that need escaping, timeline values that are
    not exactly ``int`` (the encoder renders those lines), and payloads
    of tuples, nested dicts, IR objects, a bool and a float."""
    sim = Simulator(engine="event")
    channel = sim.add_channel('q"ü\\%d', capacity=2)
    sim.add_component(Pusher('push "α"\\%s', channel, count=9))
    popper = sim.add_component(Popper("pöp%%", channel))
    observer = sim.attach_observer(Observer())
    sim.run(lambda: popper.popped == 9, max_cycles=500)

    odd = CycleLedger("hand ledger", "hand")
    odd.record_span(True, 2, OBS_BUSY)               # a bool start
    odd.record_span(3.0, 1.5, OBS_STALL_IN, "fl%oat")  # float start and end
    odd.record_span(5, 2, OBS_STALL_IN, "fl%oat")
    observer.ledgers[odd.name] = odd
    held = Channel("hand\tprobe", capacity=2)
    held.push(1)
    held.commit()
    probe = ChannelProbe(held)
    probe.record_span(0, 2, occupancy=1)
    probe.record_span(2, 1, occupancy=2.0)           # a float occupancy
    probe.record_span(3, 2)
    observer.probes[probe.name] = probe

    trace = Trace(enabled=True)
    trace.emit(1, 'push "α"\\%s', "spawn", "dé\"tail", payload={
        "gid": (1, (2, "x")), "nested": {"a": {"b": [1, 2.5]}},
        "inst": const(7), "type": I32, "flag": True, "ratio": 0.1, 3: None})
    trace.emit(2, "nobody", "sync", payload={"ok": False})
    trace.emit(2.5, "hand ledger", "late", "")

    for include_idle in (False, True):
        document = _exported_lines_are_encoder_output(
            observer=observer, trace=trace, include_idle=include_idle)
        names = {e["name"] for e in document["traceEvents"]}
        assert 'stall_out:fu"ll\\ 100% ∞' in names
        assert 'occ:q"ü\\%d' in names


@pytest.mark.parametrize("name, tiles", RUNS,
                         ids=[f"{n}@t{t}" for n, t in RUNS])
def test_observer_output_matches_golden(name, tiles):
    """The exported bytes and ``Observer.as_dict()`` of the compiled
    engine, as they were before the exporter and the ledgers were
    rewritten (regenerate: ``python -m tests.sim.obs_corpus``)."""
    golden = json.loads(OBS_GOLDEN.read_text())
    assert digests(*_observed(name, tiles)) == golden[f"{name}@t{tiles}"]
