"""The task queue: per-unit storage for dynamic task instances (Fig 4/5).

Each entry holds the spawn's Args[] (the Args RAM), the ParentID =
(SID, DyID) used to route the join, the Child# join counter, and the
entry state. The queue also stores suspended execution state: when an
instance reaches a ``sync`` with outstanding children it vacates its TXU
slot (state SYNC) and is re-dispatched when the last child joins — the
paper's asynchronous queuing that lets a task spawn itself without logic
loops (§IV-C).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, List, Optional

from repro.errors import SimulationError

FREE = "FREE"
READY = "READY"          # spawned, not yet allocated a TXU slot
EXE = "EXE"              # executing on a tile
SYNC = "SYNC"            # suspended waiting on children
COMPLETE = "COMPLETE"    # body finished, joining with parent


@dataclass
class TaskEntry:
    """One dynamic task instance in the queue."""

    dyid: int
    state: str = FREE
    args: tuple = ()
    parent_sid: Optional[int] = None
    parent_dyid: Optional[int] = None
    join_kind: str = "sync"
    call_token: Any = None
    ret_ptr: Optional[int] = None
    child_count: int = 0
    retval: Any = None
    #: saved execution context while suspended at a sync
    saved_env: Optional[dict] = None
    saved_regs: Optional[dict] = None
    resume_block: Any = None
    #: globally-unique instance id (sid, counter) — dyids are recycled,
    #: so the dynamic race checker needs its own identity
    gid: Any = None
    parent_gid: Any = None
    origin_seq: Optional[int] = None  # trace seq of the spawn issue


class TaskQueue:
    """Fixed-capacity pool of :class:`TaskEntry` with a dispatch policy.

    ``policy`` is ``"fifo"`` (loop spawners: oldest first) or ``"lifo"``
    (recursive tasks: newest first — depth-first order bounds the live
    spawn tree like a work-first Cilk scheduler).
    """

    def __init__(self, name: str, depth: int, policy: str = "fifo"):
        if depth < 1:
            raise SimulationError(f"task queue {name}: depth must be >= 1")
        if policy not in ("fifo", "lifo"):
            raise SimulationError(f"task queue {name}: unknown policy {policy}")
        self.name = name
        self.depth = depth
        self.policy = policy
        #: slot ``dyid`` is None until its first allocate()/entry(): most
        #: of a deep queue (recursive tasks get 2048 slots) is never used
        self.entries: List[Optional[TaskEntry]] = [None] * depth
        self._free: Deque[int] = deque(range(depth))
        self._ready: Deque[int] = deque()
        #: spawns accepted so far: the unit's spawn count and gid source
        self.total_allocated = 0
        self.peak_occupancy = 0

    # -- allocation ---------------------------------------------------------

    def has_free_entry(self) -> bool:
        return bool(self._free)

    @property
    def occupancy(self) -> int:
        return self.depth - len(self._free)

    def allocate(self, msg) -> TaskEntry:
        """Allocate an entry for a SpawnMessage; caller checked capacity."""
        if not self._free:
            raise SimulationError(f"task queue {self.name}: allocation when full")
        entry = self.entry(self._free.popleft())
        entry.state = READY
        entry.args = tuple(msg.args)
        entry.parent_sid = msg.parent_sid
        entry.parent_dyid = msg.parent_dyid
        entry.join_kind = msg.join_kind
        entry.call_token = msg.call_token
        entry.ret_ptr = msg.ret_ptr
        entry.child_count = 0
        entry.retval = None
        entry.saved_env = None
        entry.saved_regs = None
        entry.resume_block = None
        entry.gid = None  # stamped by the owning TaskUnit
        entry.parent_gid = getattr(msg, "parent_gid", None)
        entry.origin_seq = getattr(msg, "spawn_seq", None)
        self.total_allocated += 1
        self.peak_occupancy = max(self.peak_occupancy, self.occupancy)
        self._ready.append(entry.dyid)
        return entry

    def mark_ready(self, entry: TaskEntry):
        """Re-queue a suspended entry whose children have all joined."""
        entry.state = READY
        self._ready.append(entry.dyid)

    def release(self, entry: TaskEntry):
        if entry.state == FREE:
            raise SimulationError(f"task queue {self.name}: double free of "
                                  f"entry {entry.dyid}")
        entry.state = FREE
        entry.args = ()
        entry.saved_env = None
        entry.saved_regs = None
        self._free.append(entry.dyid)

    # -- dispatch -----------------------------------------------------------

    def take_ready(self) -> Optional[TaskEntry]:
        """Pop the next READY entry under the dispatch policy. ``fifo``
        serves the oldest spawn; ``lifo`` serves the newest (depth-first,
        which bounds the live spawn tree of recursive tasks)."""
        if not self._ready:
            return None
        dyid = self._ready.pop() if self.policy == "lifo" else self._ready.popleft()
        entry = self.entries[dyid]
        if entry.state != READY:
            raise SimulationError(
                f"task queue {self.name}: ready-list entry {dyid} in state "
                f"{entry.state}")
        return entry

    def has_ready(self) -> bool:
        return bool(self._ready)

    # -- joins ------------------------------------------------------------------

    def entry(self, dyid: int) -> TaskEntry:
        if not 0 <= dyid < self.depth:
            raise SimulationError(f"task queue {self.name}: bad DyID {dyid}")
        entry = self.entries[dyid]
        if entry is None:
            entry = self.entries[dyid] = TaskEntry(dyid=dyid)
        return entry

    def child_joined(self, dyid: int):
        entry = self.entry(dyid)
        if entry.state == FREE:
            raise SimulationError(
                f"task queue {self.name}: join to freed entry {dyid}")
        if entry.child_count <= 0:
            raise SimulationError(
                f"task queue {self.name}: join underflow on entry {dyid}")
        entry.child_count -= 1

    def stats(self) -> dict:
        return {
            "total_allocated": self.total_allocated,
            "peak_occupancy": self.peak_occupancy,
            "depth": self.depth,
        }
