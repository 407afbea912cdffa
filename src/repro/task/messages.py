"""Spawn and join messages exchanged between task units (paper Fig 5).

A spawn is the tuple (Args[], ParentID) where ParentID = [SID, DyID]; the
SID routes the eventual join back to the parent's unit and the DyID
indexes the parent's task-queue entry. ``join_kind`` distinguishes a
fork-join child (decrements the parent entry's Child# on completion) from
a blocking call (delivers its return value to the waiting dataflow node).

Both message classes are ``__slots__`` types: task-heavy workloads
allocate one per spawn/join, and the flat layout keeps the allocation
cheap and the instances picklable across sweep-worker process
boundaries without dragging simulator state along.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

JOIN_SYNC = "sync"
JOIN_CALL = "call"


class SpawnMessage:
    """Routed through the spawn network to ``dest_sid``'s task unit."""

    __slots__ = ("dest_sid", "args", "parent_sid", "parent_dyid",
                 "join_kind", "call_token", "ret_ptr", "parent_gid",
                 "spawn_seq")

    def __init__(self, dest_sid: int, args: Tuple[Any, ...],
                 parent_sid: Optional[int], parent_dyid: Optional[int],
                 join_kind: str = JOIN_SYNC,
                 call_token: Optional[Any] = None,
                 ret_ptr: Optional[int] = None,
                 parent_gid: Optional[Any] = None,
                 spawn_seq: Optional[int] = None):
        self.dest_sid = dest_sid
        self.args = args
        #: None for the host-issued root spawn
        self.parent_sid = parent_sid
        self.parent_dyid = parent_dyid
        self.join_kind = join_kind
        self.call_token = call_token       # identifies the waiting call node
        self.ret_ptr = ret_ptr             # §IV-C shared-memory return slot
        #: dynamic-checker provenance: spawning instance's globally-unique
        #: id and the trace seq of the spawn issue (None when tracing off)
        self.parent_gid = parent_gid
        self.spawn_seq = spawn_seq

    def __repr__(self):
        return (f"SpawnMessage(dest_sid={self.dest_sid!r}, "
                f"args={self.args!r}, parent_sid={self.parent_sid!r}, "
                f"parent_dyid={self.parent_dyid!r}, "
                f"join_kind={self.join_kind!r})")


class JoinMessage:
    """Completion notification routed back to the parent's task unit."""

    __slots__ = ("parent_sid", "parent_dyid", "join_kind", "call_token",
                 "retval", "child_gid")

    def __init__(self, parent_sid: int, parent_dyid: int, join_kind: str,
                 call_token: Optional[Any] = None, retval: Any = None,
                 child_gid: Optional[Any] = None):
        self.parent_sid = parent_sid
        self.parent_dyid = parent_dyid
        self.join_kind = join_kind
        self.call_token = call_token
        self.retval = retval
        self.child_gid = child_gid   # joining instance, for the checker

    def __repr__(self):
        return (f"JoinMessage(parent_sid={self.parent_sid!r}, "
                f"parent_dyid={self.parent_dyid!r}, "
                f"join_kind={self.join_kind!r}, retval={self.retval!r})")
