"""Dynamic determinacy-race checking over a simulation trace.

The task units and TXU tiles emit structured trace events — ``task-start``
(with parent gid + spawn-issue seq), ``spawn-issue``/``call-issue``,
``sync-resume``/``sync-pass``, ``call-return`` and one ``mem`` event per
shared-memory access. Because Tapir parallelism is series-parallel, those
events are enough to reconstruct the *logical* happens-before relation of
the run (the determinacy-race order — spawn edges and join edges, not
physical timing):

* everything an instance does before a spawn issue happens-before the
  spawned subtree;
* a subtree happens-before whatever its parent does after the sync (or
  call return) that joins it;
* two accesses unordered by those edges, touching overlapping bytes,
  with at least one write, are a **dynamic determinacy race**.

:func:`race_check` asks whether a run raced; :func:`cross_validate`
compares a run with the static verdicts of :mod:`repro.analysis.races`,
where a dynamic conflict the static analysis did not flag is an analyzer
soundness bug and a static MUST race that never manifests is merely
unexercised, not wrong.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import AnalysisError
from repro.ir.instructions import Store
from repro.passes.mhp import region_blocks

_EPILOGUE_NODE = -1


@dataclass
class MemAccess:
    """One shared-memory access observed in the trace."""

    seq: int
    gid: tuple
    op: str          # "load" | "store"
    addr: int
    size: int
    sid: int
    node: int
    inst: object     # originating IR instruction, None for epilogue stores
    cycle: int

    @property
    def is_write(self) -> bool:
        return self.op == "store"

    def static_key(self) -> tuple:
        if self.node == _EPILOGUE_NODE:
            return ("ret", self.sid)
        return ("inst", id(self.inst))

    def describe(self) -> str:
        what = "store" if self.is_write else "load"
        loc = getattr(self.inst, "loc", None)
        where = f" (line {loc})" if loc is not None else \
            (" (return-value store)" if self.node == _EPILOGUE_NODE else "")
        return (f"{what} [{self.addr}..{self.addr + self.size}) by instance "
                f"{self.gid} at cycle {self.cycle}{where}")


@dataclass
class DynamicConflict:
    """Two unordered overlapping accesses with at least one write."""

    a: MemAccess
    b: MemAccess

    def key_pair(self) -> frozenset:
        return frozenset((self.a.static_key(), self.b.static_key()))

    def describe(self) -> str:
        return f"{self.a.describe()}  <-races->  {self.b.describe()}"


@dataclass
class _Instance:
    gid: tuple
    parent_gid: Optional[tuple]
    origin_seq: Optional[int]
    is_call: bool
    call_return_seq: Optional[int] = None


class DynamicRaceChecker:
    """Reconstructs happens-before from a traced run and finds races."""

    def __init__(self, trace):
        self.instances: Dict[tuple, _Instance] = {}
        #: per-gid sorted seqs of sync join points (resume or pass)
        self.syncs: Dict[tuple, List[int]] = {}
        self.accesses: List[MemAccess] = []
        self._ingest(trace)

    # -- trace ingestion ---------------------------------------------------

    def _ingest(self, trace):
        saw_payload = False
        for event in trace.events:
            payload = event.payload
            if payload is None:
                continue
            saw_payload = True
            if event.kind == "task-start":
                gid = payload["gid"]
                self.instances[gid] = _Instance(
                    gid, payload.get("parent_gid"),
                    payload.get("origin_seq"), payload.get("call", False))
            elif event.kind in ("sync-resume", "sync-pass"):
                self.syncs.setdefault(payload["gid"], []).append(event.seq)
            elif event.kind == "call-return":
                child = payload.get("child_gid")
                if child is not None and child in self.instances:
                    self.instances[child].call_return_seq = event.seq
            elif event.kind == "mem":
                self.accesses.append(MemAccess(
                    event.seq, payload["gid"], payload["op"],
                    payload["addr"], payload["size"], payload["sid"],
                    payload["node"], payload.get("inst"), event.cycle))
        if not saw_payload and len(trace.events) > 0:
            raise AnalysisError(
                "trace has no structured analysis events — enable tracing "
                "before the run (Trace(enabled=True)) to use the dynamic "
                "race checker")

    # -- happens-before ----------------------------------------------------

    def _chain(self, gid: tuple) -> List[Tuple[tuple, Optional[int]]]:
        """Ancestor chain: [(gid, origin_seq_into_parent), ...] from the
        instance up to the root."""
        chain = []
        seen = set()
        current = self.instances.get(gid)
        while current is not None and current.gid not in seen:
            seen.add(current.gid)
            chain.append((current.gid, current.origin_seq))
            if current.parent_gid is None:
                break
            current = self.instances.get(current.parent_gid)
        return chain

    def _joined(self, parent_gid: tuple, child_gid: tuple,
                child_origin: Optional[int], before: int) -> bool:
        """Did ``parent_gid`` join ``child_gid``'s subtree before ``before``?"""
        child = self.instances.get(child_gid)
        if child is not None and child.is_call:
            return (child.call_return_seq is not None
                    and child.call_return_seq < before)
        if child_origin is None:
            return False
        return any(child_origin < r < before
                   for r in self.syncs.get(parent_gid, ()))

    def ordered(self, a: MemAccess, b: MemAccess) -> bool:
        """Happens-before between two accesses (either direction)."""
        if a.gid == b.gid:
            return True  # same instance: one sequential strand
        if a.seq > b.seq:
            a, b = b, a
        chain_a = self._chain(a.gid)
        chain_b = self._chain(b.gid)
        index_b = {gid: i for i, (gid, _) in enumerate(chain_b)}

        for i, (gid, _) in enumerate(chain_a):
            if gid not in index_b:
                continue
            j = index_b[gid]
            # gid is the lowest common ancestor instance
            if i == 0:
                # a's instance is an ancestor of b's: a HB b iff a precedes
                # the spawn that leads down to b.
                _, origin = chain_b[j - 1]
                return origin is not None and a.seq < origin
            if j == 0:
                # b's instance is an ancestor of a's: a HB b iff b follows
                # a join of the subtree containing a.
                sub_gid, sub_origin = chain_a[i - 1]
                return self._joined(gid, sub_gid, sub_origin, b.seq)
            # both hang off (different) children of the common ancestor
            a_gid, a_origin = chain_a[i - 1]
            b_gid, b_origin = chain_b[j - 1]
            if a_origin is None or b_origin is None:
                return False
            if a_origin < b_origin:
                return self._joined(gid, a_gid, a_origin, b_origin)
            return False  # b's subtree began first: no forward HB path
        return False  # disconnected (shouldn't happen): treat as parallel

    # -- conflict detection ------------------------------------------------

    def conflicts(self) -> List[DynamicConflict]:
        """Every unordered overlapping access pair with >= 1 write."""
        by_byte: Dict[int, List[int]] = {}
        candidate_pairs: Set[Tuple[int, int]] = set()
        for index, access in enumerate(self.accesses):
            for byte in range(access.addr, access.addr + access.size):
                bucket = by_byte.setdefault(byte, [])
                for other in bucket:
                    prior = self.accesses[other]
                    if prior.gid == access.gid:
                        continue
                    if not (prior.is_write or access.is_write):
                        continue
                    candidate_pairs.add((other, index))
                bucket.append(index)

        found: List[DynamicConflict] = []
        for ia, ib in sorted(candidate_pairs):
            a, b = self.accesses[ia], self.accesses[ib]
            if not self.ordered(a, b):
                found.append(DynamicConflict(a, b))
        return found


def race_check(trace) -> List[DynamicConflict]:
    """The unordered conflicting access pairs of a run traced from its
    start (happens-before comes from the trace alone)."""
    return DynamicRaceChecker(trace).conflicts()


# -- static/dynamic cross-validation ------------------------------------------

def _ret_store_keys(graph) -> Dict[int, tuple]:
    """Map id(store-instruction) -> ("ret", callee_root_sid) for the
    elided ret_ptr stores of direct spawns: the simulator performs them
    as hardware epilogues (node == -1), so the static instruction and the
    dynamic event must be matched by the callee unit instead."""
    keys: Dict[int, tuple] = {}
    for task in graph.tasks:
        for edge in task.spawns.values():
            if edge.ret_ptr is None:
                continue
            for block in region_blocks(edge.site):
                for inst in block.instructions:
                    if isinstance(inst, Store) and inst.pointer is edge.ret_ptr:
                        keys[id(inst)] = ("ret", edge.target.sid)
    return keys


@dataclass
class CrossValidation:
    """Outcome of checking a traced run against the static findings."""

    #: static findings whose access pair raced in this run
    confirmed: list
    #: static findings not observed racing in this run (unexercised — for
    #: MUST verdicts this usually means the input didn't hit the overlap)
    unobserved: list
    #: dynamic conflicts with no covering static finding: analyzer bugs
    missed: List[DynamicConflict]

    @property
    def sound(self) -> bool:
        """No dynamic race escaped the static analysis."""
        return not self.missed


def cross_validate(findings, trace, graph) -> CrossValidation:
    """Compare static race findings with a traced execution.

    ``findings`` are :class:`~repro.analysis.races.RaceFinding` objects
    (or diagnostics carrying ``.ops``); ``graph`` must be the *same*
    TaskGraph the executed design was generated from, so instruction
    identities line up."""
    checker = DynamicRaceChecker(trace)
    dynamic = checker.conflicts()
    ret_keys = _ret_store_keys(graph)

    def op_keys(op) -> Set[tuple]:
        keys = {("inst", id(op))}
        if id(op) in ret_keys:
            keys.add(ret_keys[id(op)])
        return keys

    def finding_pairs(finding) -> Set[frozenset]:
        if hasattr(finding, "a"):  # RaceFinding
            side_a, side_b = finding.a.ops, finding.b.ops
        else:  # Diagnostic with .ops: all pairs within
            side_a = side_b = finding.ops
        pairs = set()
        for op_a in side_a:
            for op_b in side_b:
                for ka in op_keys(op_a):
                    for kb in op_keys(op_b):
                        pairs.add(frozenset((ka, kb)))
        return pairs

    static_pairs: Set[frozenset] = set()
    per_finding = []
    for finding in findings:
        pairs = finding_pairs(finding)
        static_pairs |= pairs
        per_finding.append((finding, pairs))

    dynamic_keys = {conflict.key_pair() for conflict in dynamic}
    confirmed = [f for f, pairs in per_finding if pairs & dynamic_keys]
    unobserved = [f for f, pairs in per_finding if not (pairs & dynamic_keys)]
    missed = [c for c in dynamic if c.key_pair() not in static_pairs]
    return CrossValidation(confirmed, unobserved, missed)
