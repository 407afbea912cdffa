"""Chrome trace-event / Perfetto export.

Serialises an :class:`~repro.obs.observer.Observer` (state timelines,
channel occupancy) and an optional :class:`~repro.sim.trace.Trace`
(spawn/sync/memory events) into the Trace Event Format JSON that both
``chrome://tracing`` and https://ui.perfetto.dev load directly.

Mapping:

* each top-level component becomes a *process* (pid), with its state
  timeline on thread 0 and one further thread per TXU tile — the
  per-tile tracks of the Fig 5 execution view;
* busy/stall state runs are complete events (``ph: "X"``) whose duration
  is the run length in cycles (1 cycle == 1 us of trace time);
* trace events are instants (``ph: "i"``) on the track of their source
  component;
* channel occupancy timelines are counter tracks (``ph: "C"``).

File layout: a ``{"traceEvents":[`` line, one trace event per line
(metadata, then events by timestamp) and a closing line with the other
keys — plain JSON that diffs line by line; each line is the encoder's text.
"""

from __future__ import annotations

import copy
import gc
import json
import math
from itertools import compress, repeat
from json.encoder import c_make_encoder, encode_basestring_ascii
from operator import attrgetter, itemgetter, ne
from typing import IO, List, Union

from repro.fingerprint import atomic_writer
from repro.sim.component import OBS_IDLE

#: synthetic pid for channel counter tracks
_CHANNELS_PID = 1_000_000
#: synthetic pid for trace events whose source has no component track
_EVENTS_PID = 1_000_001
#: synthetic pid for host-side toolchain spans (repro.telemetry spans:
#: parse -> IR build -> passes -> elaboration -> simulation)
_HOST_PID = 1_000_002
#: types ``json_safe`` returns as they are
_SCALARS = frozenset((type(None), bool, int, float, str))
_INT = {int}
#: an absent key
_MISSING = object()
#: a trace event's timestamp
_CYCLE = attrgetter("cycle")
#: a state run's state
_STATE = itemgetter(0)
#: lines joined per write
_BATCH = 4096
#: the document's keys after ``traceEvents``
_OTHER_KEYS = {"displayTimeUnit": "ms", "otherData": {
    "generator": "repro-obs", "time_unit": "1 trace us == 1 accelerator cycle"}}
#: the C encoder ``json.JSONEncoder().encode`` builds for every value, built
#: once (no circular-reference check: an export holds no cycles)
_chunks = c_make_encoder and c_make_encoder(
    None, json.JSONEncoder().default, encode_basestring_ascii, None, ": ", ", ",
    False, False, True)


def _encode(value) -> str:
    """``json.JSONEncoder().encode(value)``."""
    return "".join(_chunks(value, 0)) if _chunks else json.JSONEncoder().encode(value)


def json_safe(value):
    """``value`` as JSON-native data, anything non-primitive stringified
    (trace payloads may carry IR objects; ``--stats-json`` writes stats)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [v if type(v) in _SCALARS else json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): v if type(v) in _SCALARS else json_safe(v)
                for k, v in value.items()}
    return str(value)


def _track_name(kind: str, pid: int, tid: int, name: str) -> dict:
    """Metadata event naming a process (``process_name``) or thread."""
    return {"ph": "M", "name": kind, "pid": pid, "tid": tid,
            "args": {"name": name}}


def chrome_trace(observer=None, trace=None, host_spans=None) -> dict:
    """Build the trace-event document as a Python dict.

    ``host_spans`` is a :class:`repro.telemetry.SpanTracer`: its
    toolchain-phase spans are emitted as a separate "host" process with
    one thread track, so host wall-clock and guest cycles land in one
    document (host timestamps are microseconds since the first span;
    guest timestamps stay 1 us == 1 cycle).
    """
    meta, events, _ = _walk(observer, trace, host_spans)
    return _document(meta, events)


def _document(meta: List[dict], events: List[dict]) -> dict:
    return {"traceEvents": meta + events, **copy.deepcopy(_OTHER_KEYS)}


def _walk(observer, trace, host_spans):
    """The document's metadata events, then its timed events in document
    order with each one's line of the file, led by its separator.

    Each track is rendered in one pass from what it booked, the tracks in
    ``(pid, tid, insertion)`` order: a ledger's state runs then the trace
    instants of its source, the channels' counters, the instants of no
    ledger, the host spans. One stable sort by timestamp then merges the
    tracks, each already time-ordered, into the ``(ts, pid, tid,
    insertion)`` order of the document.
    """
    meta: List[dict] = []
    events: List[dict] = []
    lines: List[str] = []
    stamps: list = []

    host: List[dict] = []
    if host_spans is not None and getattr(host_spans, "spans", None):
        from repro.telemetry.spans import host_trace_events

        host = host_trace_events(host_spans, _HOST_PID)
        if host:
            meta.append(_track_name("process_name", _HOST_PID, 0, "host toolchain"))
            meta.append(_track_name("thread_name", _HOST_PID, 0, "host thread 0"))

    tracks = []  # (pid, tid, ledger)
    placed: dict = {}  # a ledger's name -> the trace events its track shows
    if observer is not None:
        groups = dict.fromkeys(ledger.group for ledger in observer.ledgers.values())
        for pid, group in enumerate(groups):
            meta.append(_track_name("process_name", pid, 0, group))
            members = [ledger for ledger in observer.ledgers.values() if ledger.group == group]
            # the component itself first, then its tiles in name order
            members.sort(key=lambda ledger: (ledger.name != group, ledger.name))
            for tid, ledger in enumerate(members):
                tracks.append((pid, tid, ledger))
                placed[ledger.name] = []
                meta.append(_track_name("thread_name", pid, tid, ledger.name))
        meta.append(_track_name("process_name", _CHANNELS_PID, 0, "channels"))
    unplaced: list = []
    if trace is not None and len(trace):
        for event in trace.events:
            placed.get(event.source, unplaced).append(event)
        if unplaced:
            meta.append(_track_name("process_name", _EVENTS_PID, 0, "events"))

    for pid, tid, ledger in tracks:
        _states(events, lines, stamps, pid, tid, ledger.columns())
        _instants(events, lines, stamps, pid, tid, placed[ledger.name])
    if observer is not None:
        for probe in observer.probes.values():
            if probe.channel.total_pushed:
                _counters(events, lines, stamps, probe.name, probe.columns())
    _instants(events, lines, stamps, _EVENTS_PID, 0, unplaced)
    events += host
    lines += [",\n" + _encode(event) for event in host]
    stamps += map(itemgetter("ts"), host)

    # Perfetto tolerates any order, but monotonic timestamps keep the
    # export diffable and make well-formedness trivially checkable.
    order = sorted(range(len(stamps)), key=stamps.__getitem__)
    return meta, list(map(events.__getitem__, order)), list(map(lines.__getitem__, order))


def _ints(values) -> bool:
    """Whether every value is exactly an ``int`` (the encoder's text of
    one is ``str``'s; not so for a bool or a float)."""
    return set(map(type, values)) <= _INT


def _states(events, lines, stamps, pid: int, tid: int, columns) -> None:
    """A ledger's state runs but its idle ones, given as its columns: one
    complete event each, a copy of its (state, reason)'s template. A line
    is the encoder's text of its event, written out from a template around
    ts and dur when both are exactly ``int``."""
    shown = list(map(ne, map(_STATE, columns[2]), repeat(OBS_IDLE)))
    columns = [list(compress(column, shown)) for column in columns]
    starts, ends, values = columns
    forms: dict = {}  # (state, reason) -> (event template, text around ts and dur)
    event, line = events.append, lines.append
    fast = _ints(starts) and _ints(ends)
    for start, end, value in zip(starts, ends, values):
        state, reason = value
        form = forms.get(value)
        if form is None:
            name = state if reason is None else f"{state}:{reason}"
            form = forms[value] = (
                {"ph": "X", "cat": "state", "name": name, "ts": 0, "dur": 0,
                 "pid": pid, "tid": tid, "args": None},
                ',\n{"ph": "X", "cat": "state", "name": %s, "ts": ' % _encode(name),
                ', "dur": ', ', "pid": %d, "tid": %d, "args": {"state": %s, "reason": %s}}'
                % (pid, tid, _encode(state), _encode(reason)))
        template, head, mid, tail = form
        dur = end - start
        event(dict(template, ts=start, dur=dur, args={"state": state, "reason": reason}))
        if fast:
            line(f"{head}{start}{mid}{dur}{tail}")
    if not fast:
        lines += [",\n" + _encode(event) for event in events[len(lines):]]
    stamps += starts


def _counters(events, lines, stamps, channel: str, columns) -> None:
    """A channel's occupancy changes, given as its columns: one counter
    event each."""
    name = f"occ:{channel}"
    template = {"ph": "C", "cat": "channel", "name": name, "ts": 0,
                "pid": _CHANNELS_PID, "args": None}
    cycles, _, occupancies = columns
    events += [dict(template, ts=cycle, args={"occupancy": occupancy})
               for cycle, occupancy in zip(cycles, occupancies)]
    if _ints(cycles) and _ints(occupancies):
        head = ',\n{"ph": "C", "cat": "channel", "name": %s, "ts": ' % _encode(name)
        mid = ', "pid": %d, "args": {"occupancy": ' % _CHANNELS_PID
        lines += [f"{head}{cycle}{mid}{occupancy}}}}}"
                  for cycle, occupancy in zip(cycles, occupancies)]
    else:
        lines += [",\n" + _encode(event) for event in events[len(lines):]]
    stamps += cycles


def _instants(events, lines, stamps, pid: int, tid: int, batch) -> None:
    """Trace events on one track: one instant each, its args the event's
    detail, seq and payload (anything not JSON-native stringified)."""
    forms: dict = {}  # kind -> (event template, the text before ts)
    mid = ', "pid": %d, "tid": %d, "args": ' % (pid, tid)
    event, line = events.append, lines.append
    for traced in batch:
        kind, cycle = traced.kind, traced.cycle
        args = {"detail": traced.detail, "seq": traced.seq}
        if traced.payload:
            for key, value in traced.payload.items():
                args[key if type(key) is str else str(key)] = (
                    value if type(value) in _SCALARS else json_safe(value))
        form = forms.get(kind)
        if form is None:
            form = forms[kind] = (
                {"ph": "i", "s": "t", "cat": "event", "name": kind, "ts": 0,
                 "pid": pid, "tid": tid, "args": None},
                ',\n{"ph": "i", "s": "t", "cat": "event", "name": %s, "ts": ' % _encode(kind))
        event(dict(form[0], ts=cycle, args=args))
        line(f"{form[1]}{cycle}{mid}{_encode(args)}}}" if type(cycle) is int
             else ",\n" + _encode(events[-1]))
    stamps += map(_CYCLE, batch)


def export_chrome_trace(destination: Union[str, IO],
                        observer=None, trace=None, host_spans=None) -> dict:
    """Write the trace-event JSON to a path or file object. A path is
    written to a sibling temp file that is renamed into place, so a
    failing export leaves the previous file (if any), never a torn one."""
    collecting = gc.isenabled()
    gc.disable()  # all the walk allocates is kept: collecting would only rescan it
    try:
        meta, events, lines = _walk(observer, trace, host_spans)
    finally:
        if collecting:
            gc.enable()
    lines[:0] = [",\n" + _encode(event) for event in meta]
    if hasattr(destination, "write"):
        _write_document(destination, lines)
        return _document(meta, events)
    with atomic_writer(destination) as handle:
        _write_document(handle, lines)
    return _document(meta, events)


def _write_document(handle: IO, lines: List[str]) -> None:
    """``lines``, each led by its separator, between the opening and the
    closing line, joined a bounded batch at a time."""
    handle.write('{"traceEvents":[\n' + (lines[0][2:] if lines else ""))
    for at in range(1, len(lines), _BATCH):
        handle.write("".join(lines[at:at + _BATCH]))
    handle.write("\n]," + _encode(_OTHER_KEYS)[1:] + "\n")


def validate_chrome_trace(document: dict) -> List[str]:
    """Sanity-check an exported document; returns a list of problems.

    Used by ``repro profile --trace-out`` and the test suite: every
    event needs a phase and a non-negative timestamp (metadata aside),
    and timestamps must be monotonically non-decreasing in file order.
    Whatever the document holds, the answer is a list, never an error.
    """
    events = document.get("traceEvents") if isinstance(document, dict) else None
    if not isinstance(events, list) or not events:
        return ["traceEvents missing or empty"]
    problems = []
    last_ts = -math.inf
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event {i}: not an object")
            continue
        ph = event.get("ph", _MISSING)
        if ph == "M":
            continue
        if ph is _MISSING:
            problems.append(f"event {i}: missing ph")
            continue
        ts = event.get("ts")
        if type(ts) is not int and not (type(ts) is float and math.isfinite(ts)) or ts < 0:
            problems.append(f"event {i}: bad ts {ts!r}")
            continue
        if ts < last_ts:
            problems.append(f"event {i}: ts {ts} < previous {last_ts}")
        last_ts = ts
        if ph == "X":
            dur = event.get("dur", 0)
            if type(dur) is not int and not (type(dur) is float and math.isfinite(dur)):
                problems.append(f"event {i}: bad dur {dur!r}")
            elif dur < 0:
                problems.append(f"event {i}: negative dur")
    return problems
