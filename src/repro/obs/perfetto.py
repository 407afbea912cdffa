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
import itertools
import json
import math
import os
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import IO, Iterator, List, Union

from repro.sim.component import OBS_IDLE

#: synthetic pid for channel counter tracks
_CHANNELS_PID = 1_000_000
#: synthetic pid for trace events whose source has no component track
_EVENTS_PID = 1_000_001
#: synthetic pid for host-side toolchain spans (repro.telemetry spans:
#: parse -> IR build -> passes -> elaboration -> simulation)
_HOST_PID = 1_000_002
#: types ``_json_safe`` returns as they are
_SCALARS = frozenset((type(None), bool, int, float, str))
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


def _json_safe(value):
    """Payloads may carry IR objects; stringify anything non-primitive."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [v if type(v) in _SCALARS else _json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): v if type(v) in _SCALARS else _json_safe(v)
                for k, v in value.items()}
    return str(value)


def _track_name(kind: str, pid: int, tid: int, name: str) -> dict:
    """Metadata event naming a process (``process_name``) or thread."""
    return {"ph": "M", "name": kind, "pid": pid, "tid": tid,
            "args": {"name": name}}


def chrome_trace(observer=None, trace=None,
                 include_idle: bool = False, host_spans=None) -> dict:
    """Build the trace-event document as a Python dict.

    ``host_spans`` is a :class:`repro.telemetry.SpanTracer`: its
    toolchain-phase spans are emitted as a separate "host" process with
    one thread track per host thread, so host wall-clock and guest
    cycles land in one document (host timestamps are microseconds since
    the first span; guest timestamps stay 1 us == 1 cycle).
    """
    return _walk(observer, trace, include_idle, host_spans)[0]


def _walk(observer, trace, include_idle: bool, host_spans):
    """The document, its metadata events and a row per timed event in document order:
    (ts, pid, tid, insertion order), event, the encoder's line as ``(head, mid, tail)``
    around ts and value (None: encode the event), value (a trace event's: its args' text)."""
    meta: List[dict] = []
    rows: List[tuple] = []
    order = itertools.count()
    track: dict = {}  # source name -> (pid, tid)

    if host_spans is not None and getattr(host_spans, "spans", None):
        from repro.telemetry.spans import host_trace_events

        host_events = host_trace_events(host_spans, _HOST_PID)
        if host_events:
            meta.append(_track_name("process_name", _HOST_PID, 0, "host toolchain"))
            for tid in sorted({e["tid"] for e in host_events}):
                meta.append(_track_name("thread_name", _HOST_PID, tid, f"host thread {tid}"))
            rows += [(e["ts"], e["pid"], e["tid"], next(order), e, None, None) for e in host_events]

    if observer is not None:
        groups = dict.fromkeys(ledger.group for ledger in observer.ledgers.values())
        for pid, group in enumerate(groups):
            meta.append(_track_name("process_name", pid, 0, group))
            members = [ledger for ledger in observer.ledgers.values() if ledger.group == group]
            # the component itself first, then its tiles in name order
            members.sort(key=lambda ledger: (ledger.name != group, ledger.name))
            for tid, ledger in enumerate(members):
                track[ledger.name] = (pid, tid)
                meta.append(_track_name("thread_name", pid, tid, ledger.name))
                forms: dict = {}  # (state, reason) -> (name, form of the encoder's line)
                for start, end, state, reason in ledger.timeline:
                    if state == OBS_IDLE and not include_idle:
                        continue
                    form = forms.get((state, reason))
                    if form is None:
                        name = state if reason is None else f"{state}:{reason}"
                        form = forms[state, reason] = name, (
                            ',\n{"ph": "X", "cat": "state", "name": %s, "ts": ' % _encode(name),
                            ', "dur": ',
                            ', "pid": %d, "tid": %d, "args": {"state": %s, "reason": %s}}'
                            % (pid, tid, _encode(state), _encode(reason)))
                    name, line = form
                    rows.append((start, pid, tid, next(order), {
                        "ph": "X", "cat": "state", "name": name, "ts": start, "dur": end - start,
                        "pid": pid, "tid": tid, "args": {"state": state, "reason": reason},
                    }, line if type(start) is type(end) is int else None, end - start))
        meta.append(_track_name("process_name", _CHANNELS_PID, 0, "channels"))
        for probe in observer.probes.values():
            if not probe.channel.total_pushed:
                continue
            name = f"occ:{probe.name}"
            line = (',\n{"ph": "C", "cat": "channel", "name": %s, "ts": ' % _encode(name),
                    ', "pid": %d, "args": {"occupancy": ' % _CHANNELS_PID, '}}')
            rows += [(cycle, _CHANNELS_PID, 0, n, {
                "ph": "C", "cat": "channel", "name": name, "ts": cycle,
                "pid": _CHANNELS_PID, "args": {"occupancy": occupancy},
            }, line if type(cycle) is type(occupancy) is int else None, occupancy)
                for (cycle, occupancy), n in zip(probe.occupancy_timeline, order)]

    if trace is not None and len(trace):
        used_events_pid = False
        forms: dict = {}  # (kind, pid, tid) -> form of the encoder's line
        for event in trace.events:
            pid, tid = track.get(event.source, (_EVENTS_PID, 0))
            used_events_pid = used_events_pid or pid == _EVENTS_PID
            args = {"detail": event.detail, "seq": event.seq}
            if event.payload:
                args.update(_json_safe(event.payload))
            kind, cycle = event.kind, event.cycle
            line = forms.get((kind, pid, tid))
            if line is None:
                line = forms[kind, pid, tid] = (
                    ',\n{"ph": "i", "s": "t", "cat": "event", "name": %s, "ts": ' % _encode(kind),
                    ', "pid": %d, "tid": %d, "args": ' % (pid, tid), '}')
            rows.append((cycle, pid, tid, next(order), {
                "ph": "i", "s": "t", "cat": "event", "name": kind, "ts": cycle,
                "pid": pid, "tid": tid, "args": args,
            }, line if type(cycle) is int else None, _encode(args)))
        if used_events_pid:
            meta.append(_track_name("process_name", _EVENTS_PID, 0, "events"))

    # Perfetto tolerates any order, but monotonic timestamps keep the
    # export diffable and make well-formedness trivially checkable.
    rows.sort()
    document = {"traceEvents": meta + [row[4] for row in rows], **copy.deepcopy(_OTHER_KEYS)}
    return document, meta, rows


def export_chrome_trace(destination: Union[str, IO],
                        observer=None, trace=None,
                        include_idle: bool = False, host_spans=None) -> dict:
    """Write the trace-event JSON to a path or file object. A path is
    written to a sibling temp file that is renamed into place, so a
    failing export leaves the previous file (if any), never a torn one."""
    collecting = gc.isenabled()
    gc.disable()  # all the walk allocates is kept: collecting would only rescan it
    try:
        document, meta, rows = _walk(observer, trace, include_idle, host_spans)
    finally:
        if collecting:
            gc.enable()
    lines = itertools.chain((",\n" + _encode(event) for event in meta), (
        ",\n" + _encode(event) if form is None else f"{form[0]}{ts}{form[1]}{value}{form[2]}"
        for ts, _, _, _, event, form, value in rows))  # each led by its separator
    if hasattr(destination, "write"):
        _write_document(destination, lines)
        return document
    scratch = f"{destination}.{os.getpid()}.tmp"
    try:
        with open(scratch, "w") as handle:
            _write_document(handle, lines)
        os.replace(scratch, destination)
    finally:
        if os.path.exists(scratch):  # the export failed part-way
            os.unlink(scratch)
    return document


def _write_document(handle: IO, lines: Iterator[str]) -> None:
    """``lines`` between the opening and closing line, one by one, never joined."""
    handle.write('{"traceEvents":[\n' + next(lines, ",\n")[2:])
    handle.writelines(lines)
    handle.write("\n]," + _encode(_OTHER_KEYS)[1:] + "\n")


def validate_chrome_trace(document: dict) -> List[str]:
    """Sanity-check an exported document; returns a list of problems.

    Used by ``repro profile --trace-out`` and the test suite: every
    event needs a phase and a non-negative timestamp (metadata aside),
    and timestamps must be monotonically non-decreasing in file order.
    Whatever the document holds, the answer is a list, never an error.
    """
    problems = []
    events = document.get("traceEvents") if isinstance(document, dict) else None
    if not isinstance(events, list) or not events:
        return ["traceEvents missing or empty"]
    last_ts = None
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event {i}: not an object")
            continue
        if "ph" not in event:
            problems.append(f"event {i}: missing ph")
            continue
        if event["ph"] == "M":
            continue
        ts = event.get("ts")
        if not (type(ts) is int or type(ts) is float and math.isfinite(ts)) or ts < 0:
            problems.append(f"event {i}: bad ts {ts!r}")
            continue
        if last_ts is not None and ts < last_ts:
            problems.append(f"event {i}: ts {ts} < previous {last_ts}")
        last_ts = ts
        dur = event.get("dur", 0) if event["ph"] == "X" else 0
        if not (type(dur) is int or type(dur) is float and math.isfinite(dur)):
            problems.append(f"event {i}: bad dur {dur!r}")
        elif dur < 0:
            problems.append(f"event {i}: negative dur")
    return problems
