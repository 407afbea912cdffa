"""Interprocedural value-range analysis and minimal-bitwidth inference.

TAPAS emits a uniform-width datapath per operation; real HLS flows narrow
datapaths and channels to the widths the program can actually produce
(TAPA / Chi et al. make the same move for task-parallel HLS).  This module
infers, for every integer IR value and every register/frame cell, a sound
interval of the values it can take at runtime, and from that a minimal
bitwidth.  The results feed

* the width-aware resource/power models (:mod:`repro.reports.resources`),
* the ``TAP-WIDTH-*`` lint rules (:mod:`repro.analysis.lint`), and
* the dynamic cross-validator that asserts every simulated value stays
  inside its static interval (:mod:`repro.analysis.rangecheck`).

Design: a classic flow-sensitive interval analysis per function CFG with
per-bound widening at natural-loop headers, a few narrowing passes, branch
refinement on ``condbr``/``icmp`` edges, and a constant-trip-count
accumulator refinement that bounds ``s = s + delta`` reductions.  The
interprocedural layer iterates function summaries (argument joins over
spawn/call sites, return ranges, frame-cell contents) to a fixpoint with
the same widening operator.  Soundness contract: for every *completing*
execution, every dynamically produced integer value of an instruction lies
inside ``range_of(inst)``; the exact two's-complement semantics being
over-approximated are those of :mod:`repro.ir.opsem`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import reduce
from typing import Dict, List, Optional, Set, Tuple

from repro.ir.function import Function
from repro.ir.instructions import (
    Alloca,
    BinaryOp,
    Call,
    Cast,
    CondBr,
    Detach,
    FCmp,
    ICmp,
    Instruction,
    Load,
    Ret,
    Select,
    Store,
)
from repro.ir.types import IntType
from repro.ir.values import Constant, Value
from repro.passes.cfg import predecessor_map, reverse_post_order
from repro.passes.loops import find_loops, match_counted_loop

#: joins at a loop header before the widening operator kicks in
WIDEN_AFTER = 3
#: decreasing (narrowing) passes run after the widened fixpoint
NARROW_PASSES = 3
#: rounds of the interprocedural summary fixpoint before forced widening
SUMMARY_ROUNDS = 8


class Interval:
    """A closed integer interval ``[lo, hi]`` (both bounds inclusive).

    An immutable value: the fixpoint builds one per transfer, so it is a
    slotted plain class, and ``join``/``meet``/``widen`` hand back an
    operand whenever the result equals it — a stable fact costs no
    allocation and compares by identity."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: int, hi: int):
        if lo > hi:
            raise ValueError(f"empty interval [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    def __eq__(self, other):
        if other.__class__ is Interval:
            return self.lo == other.lo and self.hi == other.hi
        return NotImplemented

    def __hash__(self):
        return hash((self.lo, self.hi))

    def contains(self, value: int) -> bool:
        return self.lo <= value <= self.hi

    def join(self, other: "Interval") -> "Interval":
        if self.lo <= other.lo and other.hi <= self.hi:
            return self
        if other.lo <= self.lo and self.hi <= other.hi:
            return other
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def meet(self, other: "Interval") -> Optional["Interval"]:
        if other.lo <= self.lo and self.hi <= other.hi:
            return self
        if self.lo <= other.lo and other.hi <= self.hi:
            return other
        lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
        return Interval(lo, hi) if lo <= hi else None

    def widen(self, new: "Interval", full: "Interval") -> "Interval":
        """Per-bound widening: only an unstable bound jumps to the type
        extreme, so stable bounds survive (and narrowing recovers the
        rest)."""
        lo = self.lo if new.lo >= self.lo else full.lo
        hi = self.hi if new.hi <= self.hi else full.hi
        if lo == self.lo and hi == self.hi:
            return self
        return Interval(lo, hi)

    def is_singleton(self) -> bool:
        return self.lo == self.hi

    def __repr__(self):
        return f"[{self.lo}, {self.hi}]"


#: the whole value set of each integer width, built once
_FULL = {bits: Interval(IntType(bits).min_value, IntType(bits).max_value)
         for bits in IntType.WIDTHS}
_BOOL = _FULL[1]
_ZERO = Interval(0, 0)
_ONE = Interval(1, 1)


def full_range(type_) -> Optional[Interval]:
    """The type's whole value set, or None for non-integer types."""
    if isinstance(type_, IntType):
        return _FULL[type_.bits]
    return None


def bits_for(interval: Interval) -> int:
    """Minimal datapath width for the interval: unsigned when the interval
    is non-negative, two's-complement signed otherwise."""
    if interval.lo >= 0:
        return max(1, interval.hi.bit_length())
    return 1 + max((-interval.lo - 1).bit_length(), max(interval.hi, 0).bit_length())


# ---------------------------------------------------------------------------
# Transfer functions (must over-approximate repro.ir.opsem exactly)
# ---------------------------------------------------------------------------

def _fits(lo: int, hi: int, full: Interval) -> Optional[Interval]:
    """Candidate bounds survive only if no wrap can occur."""
    if full.lo <= lo and hi <= full.hi:
        return Interval(lo, hi)
    return full


def _tdiv(a: int, b: int) -> int:
    """Truncating (toward-zero) division, matching opsem's sdiv."""
    return abs(a) // abs(b) * (1 if (a >= 0) == (b >= 0) else -1)


def transfer_binop(op: str, a: Interval, b: Interval, type_: IntType) -> Interval:
    full = _FULL[type_.bits]
    bits = type_.bits
    if op == "add":
        return _fits(a.lo + b.lo, a.hi + b.hi, full)
    if op == "sub":
        return _fits(a.lo - b.hi, a.hi - b.lo, full)
    if op == "mul":
        corners = [a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi]
        return _fits(min(corners), max(corners), full)
    if op == "sdiv":
        # Divisor 0 traps (SimulationError), so completing runs never see it.
        divisors = {d for d in (b.lo, b.hi, -1, 1)
                    if d != 0 and b.lo <= d <= b.hi}
        if not divisors:
            return full
        corners = [_tdiv(x, d) for x in (a.lo, a.hi) for d in divisors]
        if a.lo <= type_.min_value and -1 in divisors:
            corners.append(type_.min_value)  # INT_MIN / -1 wraps to INT_MIN
        return _fits(min(corners), max(corners), full)
    if op == "srem":
        m = max(abs(b.lo), abs(b.hi))
        if m == 0:
            return full
        lo = 0 if a.lo >= 0 else max(a.lo, -(m - 1))
        hi = 0 if a.hi <= 0 else min(a.hi, m - 1)
        return Interval(lo, hi)
    if op == "and":
        if a.lo >= 0 and b.lo >= 0:
            return Interval(0, min(a.hi, b.hi))
        if a.lo >= 0:
            return Interval(0, a.hi)
        if b.lo >= 0:
            return Interval(0, b.hi)
        return full
    if op in ("or", "xor"):
        if a.lo >= 0 and b.lo >= 0:
            top = max(a.hi, b.hi)
            ceiling = (1 << top.bit_length()) - 1
            lo = max(a.lo, b.lo) if op == "or" else 0
            return _fits(lo, ceiling, full)
        return full
    if op == "shl":
        if 0 <= b.lo and b.hi <= bits - 1:
            corners = [a.lo << b.lo, a.lo << b.hi, a.hi << b.lo, a.hi << b.hi]
            return _fits(min(corners), max(corners), full)
        return full  # shift amount gets masked; bounds scramble
    if op == "ashr":
        if 0 <= b.lo and b.hi <= bits - 1:
            corners = [a.lo >> b.lo, a.lo >> b.hi, a.hi >> b.lo, a.hi >> b.hi]
            return Interval(min(corners), max(corners))
        return full
    if op == "lshr":
        if 0 <= b.lo and b.hi <= bits - 1:
            if a.lo >= 0:
                return Interval(a.lo >> b.hi, a.hi >> b.lo)
            if b.lo >= 1:
                return Interval(0, ((1 << bits) - 1) >> b.lo)
        return full
    if op == "smin":
        return Interval(min(a.lo, b.lo), min(a.hi, b.hi))
    if op == "smax":
        return Interval(max(a.lo, b.lo), max(a.hi, b.hi))
    return full


def transfer_icmp(predicate: str, a: Optional[Interval],
                  b: Optional[Interval]) -> Interval:
    """icmp result: [0, 1], pinned when the ranges decide the comparison."""
    if a is None or b is None:
        return _BOOL
    if predicate == "slt":
        true, false = a.hi < b.lo, a.lo >= b.hi
    elif predicate == "sle":
        true, false = a.hi <= b.lo, a.lo > b.hi
    elif predicate == "sgt":
        true, false = a.lo > b.hi, a.hi <= b.lo
    elif predicate == "sge":
        true, false = a.lo >= b.hi, a.hi < b.lo
    elif predicate in ("eq", "ne"):
        same = a.lo == a.hi == b.lo == b.hi
        apart = a.hi < b.lo or b.hi < a.lo
        true, false = (same, apart) if predicate == "eq" else (apart, same)
    else:
        return _BOOL
    return _ONE if true else _ZERO if false else _BOOL


def transfer_cast(kind: str, value: Optional[Interval], src_type,
                  to_type) -> Optional[Interval]:
    full = full_range(to_type)
    if full is None:
        return None  # sitofp / bitcast-to-float: not an integer result
    if kind == "fptosi" or value is None:
        return full
    if kind == "bitcast":
        if isinstance(src_type, IntType) and src_type.bits == to_type.bits:
            return value
        return full
    # opsem wraps the source value into to_type: sext preserves it, trunc
    # keeps it when it already fits, and zext first reads the source bits
    # as unsigned, which moves a possibly-negative source to
    # [0, 2^src_bits - 1].
    if kind == "zext" and isinstance(src_type, IntType) and value.lo < 0:
        value = Interval(0, (1 << src_type.bits) - 1)
    if full.lo <= value.lo and value.hi <= full.hi:
        return value
    return full


_NEGATE = {"eq": "ne", "ne": "eq", "slt": "sge", "sge": "slt",
           "sle": "sgt", "sgt": "sle"}


def _at_most(interval: Interval, bound: int) -> Optional[Interval]:
    if interval.lo > bound:
        return None
    return Interval(interval.lo, min(interval.hi, bound))


def _at_least(interval: Interval, bound: int) -> Optional[Interval]:
    if interval.hi < bound:
        return None
    return Interval(max(interval.lo, bound), interval.hi)


def refine_by_predicate(predicate: str, a: Interval,
                        b: Interval) -> Tuple[Optional[Interval], Optional[Interval]]:
    """Refined (a, b) assuming ``a <predicate> b`` holds; None = infeasible."""
    if predicate == "eq":
        met = a.meet(b)
        return met, met
    if predicate == "ne":
        return a, b  # intervals cannot represent a hole
    if predicate == "slt":
        return _at_most(a, b.hi - 1), _at_least(b, a.lo + 1)
    if predicate == "sle":
        return _at_most(a, b.hi), _at_least(b, a.lo)
    if predicate == "sgt":
        return _at_least(a, b.lo + 1), _at_most(b, a.hi - 1)
    if predicate == "sge":
        return _at_least(a, b.lo), _at_most(b, a.hi)
    return a, b


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------

@dataclass
class ModuleRanges:
    """Inferred intervals for one module, plus per-cell/channel widths.

    ``value_ranges`` maps every integer-typed instruction/argument to a
    sound interval; ``cell_ranges`` maps register and frame allocas to the
    interval of values the cell can ever hold.
    """

    module: object
    entry: Optional[str] = None
    value_ranges: Dict[Value, Interval] = field(default_factory=dict)
    cell_ranges: Dict[Alloca, Interval] = field(default_factory=dict)
    arg_ranges: Dict[Function, List[Optional[Interval]]] = field(default_factory=dict)
    ret_ranges: Dict[Function, Optional[Interval]] = field(default_factory=dict)

    def range_of(self, value: Value) -> Optional[Interval]:
        """Sound interval for ``value``, or None for non-integer values."""
        if isinstance(value, Constant):
            if isinstance(value.type, IntType):
                return Interval(value.value, value.value)
            return None
        found = self.value_ranges.get(value)
        if found is not None:
            return found
        return full_range(value.type)

    def bits_of(self, value: Value) -> Optional[int]:
        interval = self.range_of(value)
        return None if interval is None else bits_for(interval)

    def cell_bits(self, alloca: Alloca) -> Optional[int]:
        interval = self.cell_ranges.get(alloca)
        return None if interval is None else bits_for(interval)

    def channel_bits(self, task) -> List[int]:
        """Minimal payload width, in bits, of each spawn-channel argument
        of ``task`` (declared type width when nothing narrower is known)."""
        widths = []
        for value in task.args:
            inferred = self.bits_of(value)
            declared = value.type.size_bytes * 8
            widths.append(min(inferred, declared) if inferred else declared)
        return widths


# ---------------------------------------------------------------------------
# Per-function flow-sensitive analysis
# ---------------------------------------------------------------------------

class _Bases(dict):
    """value -> what ``_operand`` starts from while the value has no
    ``env`` entry: a constant's singleton (None for a float), else the
    type's full range; filled on first use. ``run`` overwrites the
    arguments' entries with the round's summaries."""

    def __missing__(self, value):
        if not isinstance(value, Constant):
            base = full_range(value.type)
        elif isinstance(value.type, IntType):
            base = Interval(value.value, value.value)
        else:
            base = None
        self[value] = base
        return base


class _FunctionAnalysis:
    """One function's interval fixpoint, parameterised by summaries.

    Built once per function: the CFG facts and each block's transfer
    plan are round-invariant, and :meth:`run` redoes the fixpoint only
    when the summary entries it reads have changed since its last run."""

    def __init__(self, function: Function):
        self.fn = function
        self.rpo = reverse_post_order(function)
        self.preds = predecessor_map(function)
        self.loops = find_loops(function)
        self.headers = {loop.header for loop in self.loops}
        self.register_cells = self._find_register_cells()
        #: the only summary entries the fixpoint reads: callees whose
        #: ``ret_ranges`` feed a Call, and frame cells a Load reads
        #: (``arg_ranges[function]`` is the third)
        insts = list(function.instructions())
        self._callees = [i.callee for i in insts if isinstance(i, Call)]
        self._frame_loads = [
            i.pointer for i in insts
            if isinstance(i, Load) and isinstance(i.pointer, Alloca)
            and i.pointer not in self.register_cells]
        self._inputs = None
        self._bases = _Bases()
        #: block -> (steps, terminator, refinable): the ``(transfer,
        #: instruction)`` pairs a visit executes, resolved here instead
        #: of per visit, and ``load -> cell`` for the block's loads of a
        #: register cell that no later store of the block overwrites (a
        #: branch on such a load refines the cell too)
        self._plans = {block: self._plan(block) for block in function.blocks}

    def _plan(self, block):
        handlers = ((BinaryOp, self._do_binop), (ICmp, self._do_icmp),
                    (FCmp, self._do_fcmp), (Select, self._do_select),
                    (Cast, self._do_cast), (Load, self._do_load),
                    (Call, self._do_call))
        steps = []
        #: cell -> index of the block's last store to it; load -> index
        last_store: Dict[Alloca, int] = {}
        loads: Dict[Load, int] = {}
        for pos, inst in enumerate(block.instructions):
            if isinstance(inst, Store):
                if inst.pointer in self.register_cells:
                    steps.append((self._do_store, inst))
                    last_store[inst.pointer] = pos
            elif isinstance(inst.type, IntType):
                for class_, handler in handlers:
                    if isinstance(inst, class_):
                        steps.append((handler, inst))
                        break
                if isinstance(inst, Load) and \
                        inst.pointer in self.register_cells:
                    loads[inst] = pos
        refinable = {load: load.pointer for load, pos in loads.items()
                     if last_store.get(load.pointer, -1) < pos}
        return steps, block.terminator, refinable

    def _summary_inputs(self) -> tuple:
        s = self.summaries
        return (tuple(s.arg_ranges[self.fn]),
                [s.ret_ranges.get(c) for c in self._callees],
                [s.frame_cells.get(a) for a in self._frame_loads])

    def _find_register_cells(self) -> Set[Alloca]:
        cells = set()
        for inst in self.fn.instructions():
            if isinstance(inst, Alloca) and not inst.in_frame:
                if isinstance(inst.allocated_type, IntType):
                    cells.add(inst)
        return cells

    # -- operand evaluation --------------------------------------------------

    def _operand(self, value: Value, facts: Dict[object, Interval]) -> Optional[Interval]:
        base = self.env.get(value)
        if base is None:
            base = self._bases[value]
            if base is None:
                return None
        refined = facts.get(value)
        if refined is not None:
            met = base.meet(refined)
            return met if met is not None else refined
        return base

    # -- block transfer ------------------------------------------------------

    def _transfer(self, block, facts: Dict[object, Interval]):
        """Run the block; returns per-successor out-facts.  The copy of
        ``facts`` is mutated as stores update cells; SSA results land in
        ``self.env``."""
        facts = dict(facts)
        steps, term, refinable = self._plans[block]
        for step, inst in steps:
            step(inst, facts)
        return self._successor_facts(term, facts, refinable)

    def _do_binop(self, inst: BinaryOp, facts):
        lhs, rhs = inst.operands
        a = self._operand(lhs, facts)
        b = self._operand(rhs, facts)
        if a is None or b is None:
            self.env[inst] = full_range(inst.type)
        else:
            self.env[inst] = transfer_binop(inst.op, a, b, inst.type)

    def _do_icmp(self, inst: ICmp, facts):
        lhs, rhs = inst.operands
        self.env[inst] = transfer_icmp(
            inst.predicate, self._operand(lhs, facts),
            self._operand(rhs, facts))

    def _do_fcmp(self, inst: FCmp, facts):
        self.env[inst] = _BOOL

    def _do_select(self, inst: Select, facts):
        cond, t, f = (self._operand(op, facts) for op in inst.operands)
        if cond == _ONE:
            result = t
        elif cond == _ZERO:
            result = f
        else:
            result = t.join(f) if t and f else None
        self.env[inst] = result or full_range(inst.type)

    def _do_cast(self, inst: Cast, facts):
        source = inst.operands[0]
        self.env[inst] = transfer_cast(
            inst.kind, self._operand(source, facts), source.type, inst.type)

    def _do_load(self, inst: Load, facts):
        ptr = inst.pointer
        if ptr in self.register_cells:
            self.env[inst] = facts.get(ptr, _ZERO)
        else:
            # a frame cell's summary, else real memory (arrays, globals):
            # contents unknown, bounded by type
            self.env[inst] = (self.summaries.frame_cells.get(ptr)
                              or full_range(inst.type))

    def _do_store(self, inst: Store, facts):
        value, ptr = inst.operands
        facts[ptr] = (self._operand(value, facts)
                      or full_range(ptr.allocated_type))

    def _do_call(self, inst: Call, facts):
        self.env[inst] = (self.summaries.ret_ranges.get(inst.callee)
                          or full_range(inst.type))

    def _successor_facts(self, term, facts, refinable):
        outs = {}
        if term is None:
            return outs

        if isinstance(term, CondBr) and isinstance(term.cond, ICmp):
            cmp_ = term.cond
            lhs, rhs = cmp_.operands
            a = self._operand(lhs, facts)
            b = self._operand(rhs, facts)
            for succ, pred in ((term.if_true, cmp_.predicate),
                               (term.if_false, _NEGATE[cmp_.predicate])):
                branch = dict(facts)
                if a is not None and b is not None:
                    ra, rb = refine_by_predicate(pred, a, b)
                    self._apply_refinement(branch, lhs, ra, refinable)
                    self._apply_refinement(branch, rhs, rb, refinable)
                # both-successors-same guard: join rather than overwrite
                if succ in outs:
                    outs[succ] = self._join_facts(outs[succ], branch)
                else:
                    outs[succ] = branch
            return outs

        for succ in term.successors():
            out = dict(facts)
            if isinstance(term, Detach) and succ is term.detached:
                # the detached region runs in its own task unit: register
                # cells it never wrote read as 0 there, so weaken to cover
                # both the inherited and the fresh-zero state.
                for key in list(out):
                    if isinstance(key, Alloca):
                        out[key] = out[key].join(_ZERO)
            if succ in outs:
                outs[succ] = self._join_facts(outs[succ], out)
            else:
                outs[succ] = out
        return outs

    def _apply_refinement(self, branch, operand, refined, refinable):
        if refined is None or isinstance(operand, Constant):
            return
        current = branch.get(operand)
        branch[operand] = refined if current is None else (
            current.meet(refined) or refined)
        # Propagate to the register cell when the compared value is a load
        # of that cell in this same block with no intervening store.
        cell = refinable.get(operand)
        if cell is not None:
            branch[cell] = branch.get(cell, _ZERO).meet(refined) or refined

    @staticmethod
    def _join_facts(a: Dict[object, Interval], b: Dict[object, Interval]):
        """Pointwise join; a key missing on either side is dropped unless it
        is a cell (cells default to [0,0] only at function entry, so a
        missing cell here means 'unknown' and must widen to the join of
        what we have — dropping it is the sound default for SSA
        refinements, full type range is recovered lazily for cells)."""
        out = {}
        for key in a.keys() & b.keys():
            out[key] = a[key].join(b[key])
        for key in (a.keys() ^ b.keys()):
            if isinstance(key, Alloca):
                # one path never constrained the cell: fall back to type range
                source = a.get(key, b.get(key))
                cell_full = full_range(key.allocated_type)
                out[key] = source.join(cell_full) if cell_full else source
        return out

    # -- fixpoint ------------------------------------------------------------

    def run(self, summaries: "_Summaries"):
        self.summaries = summaries
        inputs = self._summary_inputs()
        if inputs == self._inputs:
            return  # same summaries in, same fixpoint out
        self._inputs = inputs
        for argument, interval in zip(self.fn.arguments,
                                      summaries.arg_ranges[self.fn]):
            self._bases[argument] = interval or full_range(argument.type)
        self.env: Dict[Value, Interval] = {}
        #: (pred, succ) -> facts propagated along that edge
        self.edge_facts: Dict[Tuple[object, object], Dict[object, Interval]] = {}
        self._join_counts: Dict[object, int] = {}
        #: (loop, cell, bound) accumulator clamps from the trip refinement
        self._acc_clamps: List[tuple] = []
        entry_facts = dict.fromkeys(self.register_cells, _ZERO)
        #: block -> facts at entry (cells + SSA refinements)
        self.in_facts = {self.fn.entry: entry_facts}
        worklist = deque(self.rpo)
        queued = set(self.rpo)
        visits = 0
        cap = max(200, 40 * len(self.rpo))
        while worklist:
            block = worklist.popleft()
            queued.discard(block)
            facts = self.in_facts.get(block)
            if facts is None:
                continue
            visits += 1
            outs = self._transfer(block, facts)
            for succ, out in outs.items():
                self.edge_facts[(block, succ)] = out
                old = self.in_facts.get(succ)
                if old is None:
                    new = out
                else:
                    new = self._join_facts(old, out)
                    if succ in self.headers or visits > cap:
                        count = self._join_counts.get(succ, 0) + 1
                        self._join_counts[succ] = count
                        if count >= WIDEN_AFTER:
                            new = self._widen_facts(old, new)
                if new != old:
                    self.in_facts[succ] = new
                    if succ not in queued:
                        queued.add(succ)
                        worklist.append(succ)
        # narrowing: decreasing re-evaluation from the widened fixpoint
        for _ in range(NARROW_PASSES):
            self._sweep()
            changed = False
            for block in self.rpo:
                if block is self.fn.entry:
                    continue
                incoming = [self.edge_facts[(p, block)]
                            for p in self.preds.get(block, [])
                            if (p, block) in self.edge_facts]
                if not incoming:
                    continue
                joined = reduce(self._join_facts, incoming)
                if joined != self.in_facts.get(block):
                    self.in_facts[block] = joined
                    changed = True
            if not changed:
                break
        self._sweep()  # so env reflects the converged facts
        self._refine_accumulators()
        if self._acc_clamps:
            # one more pass so downstream blocks (e.g. the post-loop return)
            # see the clamped cell ranges, then re-pin the in-loop values
            self._sweep()
            for loop, cell, bound in self._acc_clamps:
                self._clamp_cell(loop, cell, bound)

    def _sweep(self):
        """Transfer every block from its in-facts, recording its out-edges."""
        for block in self.rpo:
            outs = self._transfer(block, self.in_facts.get(block, {}))
            for succ, out in outs.items():
                self.edge_facts[(block, succ)] = out

    @staticmethod
    def _widen_facts(old, new):
        out = {}
        for key in old.keys() & new.keys():
            type_ = key.allocated_type if isinstance(key, Alloca) else key.type
            full = full_range(type_)
            out[key] = old[key].widen(new[key], full) if full else new[key]
        for key in (old.keys() ^ new.keys()):
            if isinstance(key, Alloca):
                full = full_range(key.allocated_type)
                if full:
                    out[key] = full
        return out

    # -- constant-trip accumulator refinement --------------------------------

    def _refine_accumulators(self):
        """Bound ``s = s +/- delta`` reductions in constant-trip loops:
        the widened fixpoint sends such accumulators to the type extreme,
        but ``T`` trips of a delta in ``[dlo, dhi]`` keep them inside
        ``s_entry + T * [min(0, dlo), max(0, dhi)]``."""
        for loop in self.loops:
            trip = self._trip_bound(loop)
            if trip is None:
                continue
            induction_cell, trips = trip
            for cell in self.register_cells:
                if cell is induction_cell:
                    continue
                bound = self._accumulator_bound(loop, cell, trips)
                if bound is None:
                    continue
                self._acc_clamps.append((loop, cell, bound))
                self._clamp_cell(loop, cell, bound)

    def _loop_entry_facts(self, loop):
        incoming = []
        for pred in self.preds.get(loop.header, []):
            if pred in loop.blocks:
                continue
            facts = self.edge_facts.get((pred, loop.header))
            if facts is not None:
                incoming.append(facts)
        if loop.header is self.fn.entry:
            incoming.append(dict.fromkeys(self.register_cells, _ZERO))
        return reduce(self._join_facts, incoming) if incoming else None

    def _trip_bound(self, loop) -> Optional[Tuple[Alloca, int]]:
        """(induction cell, max trips) for ``while (i <lt/le> K)`` loops
        whose only in-loop updates are ``i = i + positive-const``."""
        shape = match_counted_loop(loop)
        if shape is None:
            return None
        cell, cmp_ = shape.cell, shape.compare
        if (cmp_ is not loop.header.terminator.cond  # a conjunct: skip
                or cmp_.lhs.parent is not loop.header
                or not isinstance(cmp_.rhs, Constant)
                or cell not in self.register_cells):
            return None
        step = shape.up_step()
        if step is None:
            return None
        entry = self._loop_entry_facts(loop)
        if entry is None:
            return None
        limit = cmp_.rhs.value + (1 if cmp_.predicate == "sle" else 0)
        start = entry.get(cell, _ZERO)
        trips = max(0, -(-(limit - start.lo) // step))  # ceil division
        return cell, trips

    def _accumulator_bound(self, loop, cell: Alloca, trips: int) -> Optional[Interval]:
        deltas = []
        stores = []
        for block in loop.blocks:
            for inst in block.instructions:
                if isinstance(inst, Store) and inst.pointer is cell:
                    stores.append(inst)
        if not stores:
            return None
        for store in stores:
            value = store.value
            if not isinstance(value, BinaryOp) or value.op not in ("add", "sub"):
                return None
            lhs, rhs = value.lhs, value.rhs
            if isinstance(lhs, Load) and lhs.pointer is cell:
                delta = rhs
            elif (value.op == "add" and isinstance(rhs, Load)
                  and rhs.pointer is cell):
                delta = lhs
            else:
                return None
            if self._depends_on_cell(delta, cell):
                return None
            drange = self.env.get(delta) if isinstance(delta, Instruction) else (
                Interval(delta.value, delta.value)
                if isinstance(delta, Constant) and isinstance(delta.type, IntType)
                else None)
            if drange is None:
                return None
            if value.op == "sub":
                drange = Interval(-drange.hi, -drange.lo)
            deltas.append(drange)
        entry = self._loop_entry_facts(loop)
        if entry is None:
            return None
        start = entry.get(cell, _ZERO)
        dlo = min(d.lo for d in deltas)
        dhi = max(d.hi for d in deltas)
        lo = start.lo + trips * min(0, dlo)
        hi = start.hi + trips * max(0, dhi)
        full = full_range(cell.allocated_type)
        if full is None or lo < full.lo or hi > full.hi:
            return None  # could genuinely wrap: keep the widened range
        return Interval(lo, hi)

    def _depends_on_cell(self, value: Value, cell: Alloca, depth: int = 0) -> bool:
        if depth > 16:
            return True  # conservatively assume dependence
        if isinstance(value, Load) and value.pointer is cell:
            return True
        if isinstance(value, Instruction):
            return any(self._depends_on_cell(op, cell, depth + 1)
                       for op in value.operands)
        return False

    def _clamp_cell(self, loop, cell: Alloca, bound: Interval):
        """Meet the cell, in-loop loads of it, and the accumulating stores'
        values with ``bound`` (all stay within it for any <=T trips)."""
        for block in loop.blocks:
            for inst in block.instructions:
                if isinstance(inst, Load) and inst.pointer is cell:
                    old = self.env.get(inst)
                    if old is not None:
                        self.env[inst] = old.meet(bound) or bound
                elif isinstance(inst, Store) and inst.pointer is cell:
                    value = inst.value
                    if isinstance(value, Instruction):
                        old = self.env.get(value)
                        if old is not None:
                            self.env[value] = old.meet(bound) or bound
        for facts in list(self.in_facts.values()) + list(self.edge_facts.values()):
            old = facts.get(cell)
            if old is not None:
                facts[cell] = old.meet(bound) or bound

    # -- summary extraction ---------------------------------------------------

    def cell_summary(self) -> Dict[Alloca, Interval]:
        """Join of every value each register cell can hold."""
        out: Dict[Alloca, Interval] = {}
        for cell in self.register_cells:
            joined = _ZERO  # initial contents
            for facts in self.edge_facts.values():
                held = facts.get(cell)
                if held is not None:
                    joined = joined.join(held)
            for facts in self.in_facts.values():
                held = facts.get(cell)
                if held is not None:
                    joined = joined.join(held)
            out[cell] = joined
        return out

    def ret_summary(self) -> Optional[Interval]:
        if not isinstance(self.fn.return_type, IntType):
            return None
        joined = None
        for block in self.fn.blocks:
            term = block.terminator
            if isinstance(term, Ret) and term.value is not None:
                facts = self.in_facts.get(block)
                if facts is None:
                    continue  # unreachable return
                interval = self._operand(term.value, dict(facts))
                if interval is None:
                    return full_range(self.fn.return_type)
                joined = interval if joined is None else joined.join(interval)
        return joined if joined is not None else full_range(self.fn.return_type)

    def exit_range(self, value: Value) -> Optional[Interval]:
        """``value``'s converged interval, outside any branch refinement
        (what a call site passes or a frame-cell store writes)."""
        if isinstance(value, Instruction):
            return self.env.get(value)
        return self._bases[value]


# ---------------------------------------------------------------------------
# Interprocedural driver
# ---------------------------------------------------------------------------

@dataclass
class _Summaries:
    """What the per-function fixpoints read of each other; compared by
    value between rounds."""

    arg_ranges: Dict[Function, List[Optional[Interval]]]
    ret_ranges: Dict[Function, Optional[Interval]] = field(default_factory=dict)
    frame_cells: Dict[Alloca, Interval] = field(default_factory=dict)


def _frame_cell_stores(cell: Alloca, insts: List[Instruction]) -> Optional[List[Value]]:
    """The values stored into frame cell ``cell``, or None if it escapes:
    every use must be a direct load or store address (the direct-spawn
    return path stores through it directly, so it stays non-escaping)."""
    stored = []
    for inst in insts:
        if isinstance(inst, Load) and inst.pointer is cell:
            continue
        if isinstance(inst, Store) and inst.pointer is cell and inst.value is not cell:
            stored.append(inst.value)
        elif any(op is cell for op in inst.operands):
            return None
    return stored


def infer_module_ranges(module, design=None, entry: Optional[str] = None) -> ModuleRanges:
    """Infer sound intervals for every integer value in ``module``.

    ``entry`` names the only host-invocable function: its arguments are
    unconstrained, while every other function's arguments are the join of
    its spawn/call-site argument ranges.  With ``entry=None`` (the build
    gate, where any function may be offloaded) all function arguments are
    unconstrained.  ``design`` (a GeneratedDesign) supplies direct spawns
    (call sites) and their return-pointer wiring (frame-cell writers).
    """
    from repro.telemetry.spans import TRACER

    with TRACER.span("analysis.ranges", category="analysis"):
        functions = module.functions
        entry_fn = next((f for f in functions if f.name == entry), None)
        spawns = ([(task.function, spawn) for task in design.graph.tasks
                   for spawn in task.direct_spawns.values()]
                  if design is not None else [])
        #: (caller, callee, args) of every call and direct spawn whose
        #: argument ranges join into the callee's (none without an entry)
        sites = []
        if entry_fn is not None:
            sites = [(f, inst.callee, inst.args) for f in functions
                     for inst in f.instructions() if isinstance(inst, Call)]
            sites += [(caller, spawn.callee, spawn.args)
                      for caller, spawn in spawns]
            sites = [site for site in sites if site[1] is not entry_fn]
        writers: Dict[Alloca, List[Function]] = {}
        for _caller, spawn in spawns:
            if isinstance(spawn.ret_ptr, Alloca):
                writers.setdefault(spawn.ret_ptr, []).append(spawn.callee)
        #: (owner, cell, stored values or None if escaping, spawn writers)
        #: of every integer frame cell
        frames = []
        for function in functions:
            insts = list(function.instructions())
            for cell in insts:
                if (isinstance(cell, Alloca) and cell.in_frame
                        and isinstance(cell.allocated_type, IntType)):
                    frames.append((function, cell, _frame_cell_stores(cell, insts),
                                   writers.get(cell, ())))

        def seed_args():  # call sites fill the Nones
            return {f: [full_range(a.type) if entry_fn is None or f is entry_fn
                        else None for a in f.arguments] for f in functions}

        analyses = {function: _FunctionAnalysis(function) for function in functions}
        summaries = _Summaries(seed_args())
        for round_no in range(SUMMARY_ROUNDS + 1):
            for analysis in analyses.values():
                analysis.run(summaries)
            new = _Summaries(seed_args(), {f: a.ret_summary() for f, a in analyses.items()})
            for caller, callee, args in sites:
                joined = new.arg_ranges[callee]
                for i, arg in enumerate(args):
                    interval = analyses[caller].exit_range(arg) or full_range(arg.type)
                    if interval is not None:
                        joined[i] = interval if joined[i] is None else joined[i].join(interval)
            # a function nobody calls keeps None args; treat as unreachable
            # but analyse with full ranges for reporting
            for function, args in new.arg_ranges.items():
                args[:] = [a if a is not None else full_range(arg.type)
                           for a, arg in zip(args, function.arguments)]
            for owner, cell, stores, callees in frames:
                full = full_range(cell.allocated_type)
                if stores is None:
                    new.frame_cells[cell] = full
                    continue
                joined = _ZERO
                for value in stores:
                    joined = joined.join(analyses[owner].exit_range(value) or full)
                for callee in callees:
                    joined = joined.join(new.ret_ranges[callee] or full)
                new.frame_cells[cell] = joined
            if new == summaries:
                break
            if round_no == SUMMARY_ROUNDS:
                # force-widen unstable summaries so the loop terminates soundly
                for function in functions:
                    if new.ret_ranges[function] != summaries.ret_ranges.get(function):
                        new.ret_ranges[function] = full_range(function.return_type)
                    new.arg_ranges[function] = [
                        a if a == old else full_range(arg.type) for a, old, arg in zip(
                            new.arg_ranges[function], summaries.arg_ranges[function],
                            function.arguments)]
                for cell, interval in new.frame_cells.items():
                    if interval != summaries.frame_cells.get(cell):
                        new.frame_cells[cell] = full_range(cell.allocated_type)
                # one last round under the widened summaries
                for analysis in analyses.values():
                    analysis.run(new)
            summaries = new

        result = ModuleRanges(module=module, entry=entry)
        result.arg_ranges = dict(summaries.arg_ranges)
        result.ret_ranges = dict(summaries.ret_ranges)
        for function, analysis in analyses.items():
            for value, interval in analysis.env.items():
                if isinstance(value.type, IntType):
                    result.value_ranges[value] = interval
            for arg, interval in zip(function.arguments,
                                     summaries.arg_ranges[function]):
                if interval is not None:
                    result.value_ranges[arg] = interval
            result.cell_ranges.update(analysis.cell_summary())
        for cell, interval in summaries.frame_cells.items():
            result.cell_ranges[cell] = interval
        return result


def infer_design_ranges(design, entry: Optional[str] = None) -> ModuleRanges:
    """Range analysis for a :class:`~repro.accel.generator.GeneratedDesign`
    (post-optimisation module + task graph, i.e. exactly what the TXUs
    execute)."""
    return infer_module_ranges(design.module, design=design, entry=entry)
