"""Execution tracing: a lightweight event log for debugging and for the
execution-flow figures (paper Fig 5 / Fig 7 style traces).

Besides the human-readable ``detail`` string, events may carry a
machine-readable ``payload`` dict. The task units and TXU tiles use
payloads to record the spawn tree, sync/join points and every shared-
memory access of a run: the Perfetto export carries them, and they are
enough to reconstruct the run's happens-before relation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional


@dataclass(init=False)
class TraceEvent:
    """One traced event; slotted, as a run emits one per spawn, sync and
    memory access."""

    __slots__ = ("cycle", "source", "kind", "detail", "payload", "seq")
    cycle: int
    source: str
    kind: str
    detail: str
    payload: Optional[dict]
    #: global emission order
    seq: int

    def __init__(self, cycle: int, source: str, kind: str, detail: str,
                 payload: Optional[dict] = None, seq: int = 0):
        self.cycle = cycle
        self.source = source
        self.kind = kind
        self.detail = detail
        self.payload = payload
        self.seq = seq

    def __str__(self):
        return f"[{self.cycle:>8}] {self.source:<20} {self.kind:<10} {self.detail}"


class Trace:
    """Collects events; disabled by default so the hot path stays cheap."""

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.events: List[TraceEvent] = []
        self._seq = 0

    def emit(self, cycle: int, source: str, kind: str, detail: str = "",
             payload: Optional[dict] = None) -> Optional[TraceEvent]:
        if not self.enabled:
            return None
        event = TraceEvent(cycle, source, kind, detail, payload, self._seq)
        self._seq += 1
        self.events.append(event)
        return event

    def render(self, limit: int = 200) -> str:
        lines = [str(e) for e in self.events[:limit]]
        if len(self.events) > limit:
            lines.append(f"... {len(self.events) - limit} more events")
        return "\n".join(lines)

    def __len__(self):
        return len(self.events)


#: shared no-op trace used when callers don't supply one
NULL_TRACE = Trace(enabled=False)
