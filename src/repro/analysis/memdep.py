"""Affine memory-dependence analysis over the parallel IR.

The question the race detector needs answered is: *can these two memory
accesses touch overlapping bytes, given that they may run in parallel —
possibly in different dynamic instances of the same spawn site?*

Pointers in this IR are structurally simple — every address is a chain of
GEPs off an alloca, a function argument, or a global — so the analysis
models each access as an :class:`AddressExpr`:

    base_object + const + sum(coeff_i * value_i)

with the symbolic terms kept as IR values. Two accesses are compared by
cancelling terms bound to the same value, turning loop-carried induction
terms into a multiple of the instance distance ``d``, and solving the
resulting one-variable interval-overlap problem exactly. Anything the
affine model cannot express degrades soundly to "may alias".

Cross-function effects (fib/mergesort spawning themselves, dedup's chunk
helpers) are handled with per-function *effect summaries* computed to a
fixpoint over the call graph; callee frame slots become *instance-local*
roots, which are disjoint from everything because every task instance
gets a fresh frame.

Documented assumptions (see docs/analysis.md):

* distinct pointer **arguments** of the entry function do not alias each
  other or globals (C ``restrict`` style, matching how the host runtime
  allocates workload buffers);
* a "definite" verdict for cross-instance pairs assumes the spawn site
  runs at least two instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.ir.function import Function
from repro.ir.instructions import (
    GEP,
    Alloca,
    BinaryOp,
    Call,
    Cast,
    Instruction,
    Load,
    Store,
)
from repro.ir.module import Module
from repro.ir.values import Argument, Constant, GlobalVariable, Value
from repro.passes.loops import cell_updates

# Root object classes of an address expression.
ROOT_ALLOCA = "alloca"        # frame slot of the function under analysis
ROOT_ARGUMENT = "argument"    # pointer argument of the function under analysis
ROOT_GLOBAL = "global"        # module global (shared-memory segment)
ROOT_INSTANCE = "instance"    # callee frame slot seen through a summary
ROOT_UNKNOWN = "unknown"      # pointer loaded from memory, etc.

# Alias verdicts.
MUST = "must"
MAY = "may"
DISJOINT = "disjoint"

_MAX_LINEAR_DEPTH = 8


class AddressExpr:
    """``root + const + sum(coeff * term)`` with byte units.

    ``exact=False`` means "somewhere inside root" (the TOP of the offset
    lattice — used when summaries widen or a term cannot be carried
    across a call boundary)."""

    def __init__(self, root_kind: str, root: Optional[Value], const: int = 0,
                 terms: Optional[Dict[Value, int]] = None, exact: bool = True):
        self.root_kind = root_kind
        self.root = root
        self.const = int(const)
        self.terms: Dict[Value, int] = {
            k: int(c) for k, c in (terms or {}).items() if int(c) != 0}
        self.exact = exact

    def widened(self) -> "AddressExpr":
        return AddressExpr(self.root_kind, self.root, 0, None, exact=False)

    def root_key(self) -> tuple:
        if self.root_kind == ROOT_UNKNOWN:
            return (ROOT_UNKNOWN,)
        return (self.root_kind, id(self.root))

    def state_key(self) -> tuple:
        """Structural identity, for fixpoint change detection."""
        if not self.exact:
            return self.root_key() + (False,)
        terms = tuple(sorted((id(k), c) for k, c in self.terms.items()))
        return self.root_key() + (True, self.const, terms)

    def root_desc(self) -> str:
        name = getattr(self.root, "name", None) or "?"
        if self.root_kind == ROOT_GLOBAL:
            return f"@{name}"
        if self.root_kind == ROOT_ARGUMENT:
            return f"%{name} (argument)"
        if self.root_kind == ROOT_ALLOCA:
            return f"%{name} (frame slot)"
        if self.root_kind == ROOT_INSTANCE:
            return f"%{name} (callee frame)"
        return "<unresolved pointer>"

    def __repr__(self):
        if not self.exact:
            return f"<AddressExpr {self.root_desc()}+TOP>"
        parts = [str(self.const)]
        parts += [f"{c}*{k.short()}" for k, c in self.terms.items()]
        return f"<AddressExpr {self.root_desc()}+{'+'.join(parts)}>"


@dataclass
class MemEffect:
    """One load/store footprint: an address expression plus access width.

    ``ops`` are the originating load/store instructions (provenance, kept
    small); ``via`` is the chain of caller-side call instructions the
    effect was imported through (outermost last)."""

    expr: AddressExpr
    size: Optional[int]
    is_write: bool
    ops: Tuple[Instruction, ...]
    via: Tuple[Instruction, ...] = ()

    def merge_key(self) -> tuple:
        return self.expr.root_key() + (self.is_write,)


class PointerResolver:
    """Resolves pointers/integers of one function into linear forms."""

    def __init__(self, function: Function):
        self.function = function
        self._slot_single_def: Optional[Dict[Alloca, Optional[Value]]] = None

    # -- scalar slots ------------------------------------------------------

    def _single_def(self, slot: Alloca) -> Optional[Value]:
        """If a register slot is stored exactly once with an Argument or
        Constant, that value — lets ``out[i]`` with ``i`` a parameter
        copied into a slot export cleanly through summaries."""
        if self._slot_single_def is None:
            stores: Dict[Alloca, List[Store]] = {}
            for block in self.function.blocks:
                for inst in block.instructions:
                    if isinstance(inst, Store) and isinstance(inst.pointer, Alloca):
                        stores.setdefault(inst.pointer, []).append(inst)
            self._slot_single_def = {}
            for found, insts in stores.items():
                value = insts[0].value if len(insts) == 1 else None
                if not isinstance(value, (Argument, Constant)):
                    value = None
                self._slot_single_def[found] = value
        return self._slot_single_def.get(slot)

    def _canonical(self, value: Value) -> Value:
        if isinstance(value, Load) and isinstance(value.pointer, Alloca) \
                and not value.pointer.in_frame:
            single = self._single_def(value.pointer)
            if single is not None:
                return single
        return value

    # -- linear decomposition ---------------------------------------------

    def linear(self, value: Value, depth: int = 0) -> Tuple[int, Dict[Value, int]]:
        """Decompose an integer value into ``const + sum(coeff * term)``."""
        value = self._canonical(value)
        if isinstance(value, Constant):
            return int(value.value), {}
        if depth >= _MAX_LINEAR_DEPTH:
            return 0, {value: 1}
        if isinstance(value, Cast) and value.kind == "sext":
            # zext stays an opaque term: it moves a negative operand
            return self.linear(value.operands[0], depth + 1)
        if isinstance(value, BinaryOp):
            if value.op in ("add", "sub"):
                lc, lt = self.linear(value.lhs, depth + 1)
                rc, rt = self.linear(value.rhs, depth + 1)
                sign = 1 if value.op == "add" else -1
                for key, coeff in rt.items():
                    lt[key] = lt.get(key, 0) + sign * coeff
                return lc + sign * rc, {k: c for k, c in lt.items() if c}
            if value.op == "mul":
                for a, b in ((value.lhs, value.rhs), (value.rhs, value.lhs)):
                    a = self._canonical(a)
                    if isinstance(a, Constant):
                        scale = int(a.value)
                        c, t = self.linear(b, depth + 1)
                        return scale * c, {k: scale * x for k, x in t.items() if scale * x}
            if value.op == "shl":
                rhs = self._canonical(value.rhs)
                if isinstance(rhs, Constant) and 0 <= int(rhs.value) < 32:
                    scale = 1 << int(rhs.value)
                    c, t = self.linear(value.lhs, depth + 1)
                    return scale * c, {k: scale * x for k, x in t.items()}
        return 0, {value: 1}

    # -- pointer resolution ------------------------------------------------

    def resolve(self, pointer: Value) -> AddressExpr:
        const = 0
        terms: Dict[Value, int] = {}
        value = pointer
        for _ in range(64):
            if isinstance(value, GEP):
                for index, stride in zip(value.indices, value.strides):
                    c, t = self.linear(index)
                    const += c * stride
                    for key, coeff in t.items():
                        terms[key] = terms.get(key, 0) + coeff * stride
                value = value.base
                continue
            if isinstance(value, Cast) and value.kind == "bitcast":
                value = value.operands[0]
                continue
            break
        if isinstance(value, Alloca):
            return AddressExpr(ROOT_ALLOCA, value, const, terms)
        if isinstance(value, Argument):
            return AddressExpr(ROOT_ARGUMENT, value, const, terms)
        if isinstance(value, GlobalVariable):
            return AddressExpr(ROOT_GLOBAL, value, const, terms)
        return AddressExpr(ROOT_UNKNOWN, value, const, terms)


# ---------------------------------------------------------------------------
# Induction recognition
# ---------------------------------------------------------------------------

def induction_step(value: Value, context_blocks) -> Optional[int]:
    """If ``value`` is the load of a register slot that is updated exactly
    once inside ``context_blocks`` by ``slot = slot +/- C``, the signed
    per-instance step ``C``; otherwise None."""
    if not isinstance(value, Load):
        return None
    slot = value.pointer
    if not isinstance(slot, Alloca) or slot.in_frame:
        return None
    updates = cell_updates(context_blocks, slot)
    if len(updates) != 1:
        return None
    return updates[0][1] or None


def _defined_in(value: Value, block_set) -> bool:
    return isinstance(value, Instruction) and value.parent in block_set


# ---------------------------------------------------------------------------
# The alias oracle
# ---------------------------------------------------------------------------

def _roots_verdict(a: AddressExpr, b: AddressExpr) -> Optional[str]:
    """Verdict decidable from roots alone; None means compare offsets."""
    if a.root_kind == ROOT_UNKNOWN or b.root_kind == ROOT_UNKNOWN:
        return MAY
    if a.root_kind == ROOT_INSTANCE or b.root_kind == ROOT_INSTANCE:
        # Callee frames are per-instance; nothing else can name them
        # (frame addresses never escape in this IR).
        return DISJOINT
    if a.root_kind != b.root_kind:
        # restrict-style assumption: entry arguments don't alias globals
        # or this function's own frame slots.
        return DISJOINT
    if a.root is not b.root:
        return DISJOINT  # distinct allocas/globals/arguments are disjoint
    return None


def compare_effects(a: MemEffect, b: MemEffect, context_blocks,
                    cross_instance_only: bool) -> str:
    """Can the two footprints overlap, given they run in parallel?

    ``context_blocks`` scopes invariance/induction checks: a term defined
    outside it is the same binding on both sides; a term recognised as an
    induction load contributes ``coeff * step * d`` where ``d`` is the
    (integer) instance distance. ``cross_instance_only`` excludes ``d=0``
    — used for two instances of the same spawn site.
    """
    verdict = _roots_verdict(a.expr, b.expr)
    if verdict is not None:
        return verdict
    if not a.expr.exact or not b.expr.exact:
        return MAY
    if a.size is None or b.size is None:
        return MAY

    context = set(context_blocks)
    delta = b.expr.const - a.expr.const
    gain = 0          # residual coefficient on the instance distance d
    solvable = True   # every term accounted for exactly

    keys = set(a.expr.terms) | set(b.expr.terms)
    for key in keys:
        ca = a.expr.terms.get(key, 0)
        cb = b.expr.terms.get(key, 0)
        if ca == cb:
            if not _defined_in(key, context):
                continue  # same binding on both sides: cancels
            step = induction_step(key, context)
            if step is None:
                solvable = False
                continue
            gain += ca * step
        else:
            solvable = False
    if not solvable:
        return MAY

    # The byte ranges [0, size_a) and [delta + gain*d, ... + size_b)
    # overlap iff -size_b < delta + gain*d < size_a for some allowed d.
    lo = -b.size + 1 - delta
    hi = a.size - 1 - delta
    if gain == 0:
        # Address difference is instance-independent; d is irrelevant.
        return MUST if lo <= 0 <= hi else DISJOINT
    g = abs(gain)
    d_lo = -(-lo // g)   # ceil(lo / g)
    d_hi = hi // g       # floor(hi / g)
    if d_lo > d_hi:
        return DISJOINT
    if cross_instance_only and d_lo == 0 == d_hi:
        return DISJOINT  # only the same instance would overlap
    return MUST


# ---------------------------------------------------------------------------
# Per-function effect summaries
# ---------------------------------------------------------------------------

def _effect_of_access(inst, resolver: PointerResolver) -> MemEffect:
    if isinstance(inst, Load):
        return MemEffect(resolver.resolve(inst.pointer),
                         inst.type.size_bytes, False, (inst,))
    return MemEffect(resolver.resolve(inst.pointer),
                     inst.value.type.size_bytes, True, (inst,))


def substitute_effect(effect: MemEffect, call: Call,
                      resolver: PointerResolver) -> MemEffect:
    """Rewrite a callee-summary effect into the caller's terms at ``call``."""
    expr = effect.expr
    via = effect.via + (call,)
    if expr.root_kind in (ROOT_UNKNOWN, ROOT_INSTANCE):
        return MemEffect(expr, effect.size, effect.is_write, effect.ops, via)
    if expr.root_kind == ROOT_ALLOCA:
        # the callee's own frame slot: a fresh frame per instance
        inst_expr = AddressExpr(ROOT_INSTANCE, expr.root, expr.const,
                                expr.terms, expr.exact)
        return MemEffect(inst_expr, effect.size, effect.is_write,
                         effect.ops, via)

    if expr.root_kind == ROOT_ARGUMENT:
        base = resolver.resolve(call.args[expr.root.index])
        root_kind, root = base.root_kind, base.root
        const = base.const + expr.const
        terms = dict(base.terms)
        exact = base.exact and expr.exact
    else:  # global: same object in every scope
        root_kind, root = ROOT_GLOBAL, expr.root
        const = expr.const
        terms = {}
        exact = expr.exact

    if exact:
        for key, coeff in expr.terms.items():
            if isinstance(key, Argument):
                c, t = resolver.linear(call.args[key.index])
                const += coeff * c
                for k2, c2 in t.items():
                    terms[k2] = terms.get(k2, 0) + coeff * c2
            else:
                exact = False  # callee-internal value: not expressible here
                break
    new = AddressExpr(root_kind, root, const, terms if exact else None, exact)
    return MemEffect(new, effect.size if exact else None,
                     effect.is_write, effect.ops, via)


def _merge_effect(table: Dict[tuple, MemEffect], effect: MemEffect):
    key = effect.merge_key()
    existing = table.get(key)
    if existing is None:
        table[key] = effect
        return
    ops = existing.ops
    for op in effect.ops:
        if len(ops) >= 4:
            break
        if op not in ops:
            ops = ops + (op,)
    if existing.expr.state_key() == effect.expr.state_key() \
            and existing.size == effect.size:
        table[key] = MemEffect(existing.expr, existing.size,
                               existing.is_write, ops, existing.via)
    else:
        table[key] = MemEffect(existing.expr.widened(), None,
                               existing.is_write, ops, existing.via)


def effects_of_blocks(blocks, resolver: PointerResolver,
                      summaries: Dict[Function, List[MemEffect]]) -> List[MemEffect]:
    """Direct loads/stores of ``blocks`` plus substituted callee summaries.
    Register-file traffic (scalar slot reads/writes) is excluded — those
    never reach the shared cache."""
    from repro.passes.dataflow_graph import is_register_access

    effects: List[MemEffect] = []
    for block in blocks:
        for inst in block.instructions:
            if isinstance(inst, (Load, Store)):
                if not is_register_access(inst):
                    effects.append(_effect_of_access(inst, resolver))
            elif isinstance(inst, Call):
                for effect in summaries.get(inst.callee, []):
                    effects.append(substitute_effect(effect, inst, resolver))
    return effects


def compute_summaries(module: Module) -> Dict[Function, List[MemEffect]]:
    """Fixpoint of per-function memory effects over the call graph.

    Terminates because effect tables only grow and offset expressions only
    move exact -> TOP (both finite)."""
    resolvers = {f: PointerResolver(f) for f in module.functions}
    summaries: Dict[Function, List[MemEffect]] = {f: [] for f in module.functions}
    states: Dict[Function, tuple] = {f: () for f in module.functions}
    changed = True
    while changed:
        changed = False
        for function in module.functions:
            table: Dict[tuple, MemEffect] = {}
            for effect in effects_of_blocks(function.blocks,
                                            resolvers[function], summaries):
                _merge_effect(table, effect)
            state = tuple(sorted(
                (key, eff.expr.state_key(), eff.size is None)
                for key, eff in table.items()))
            if state != states[function]:
                states[function] = state
                summaries[function] = list(table.values())
                changed = True
    return summaries
