"""Compiled engine: per-design specialized flat kernels.

The default engine (``Simulator(engine="compiled")``) flattens an
elaborated netlist into generated Python specialized for that exact
design -- a netlist shell plus one stepper module per task unit, shared
by every design point of the program: every task unit / TXU tile is
inlined down to straight-line per-dataflow-node code (operand reads,
handshake checks and latency literals baked in as constants, each pure
node's arithmetic specialised from :mod:`repro.ir.opsem`; a spawn, a
call, a suspend or a finish is the tile's own method), while the
plumbing components (arbiters, demuxes, cache, DRAM, scratchpad, data
boxes) are inlined too — each section derived from the class's own
``tick()`` source by :mod:`repro.sim.derive`, channel handshakes turned
into flat-array ops — and run behind *no-op guards*: start-of-cycle
state checks that are false only when the tick could not change any
architectural state.

The contract is the same bit-identity the dense and event engines share:
cycle counts, architectural stats, channel traffic and error behaviour
are identical, enforced by the ``repro diff`` matrix and the hypothesis
engine-parity property tests. All speed comes from removing Python
interpretation overhead (attribute lookups, dict dispatch, dead guard
re-evaluation), never from changing semantics: the kernel operates on
the *real* simulator objects (channels, task queues, instances,
messages), so any state it leaves behind is exactly the state the dense
engine would have produced.

Every engine schedules TXU instances the same way: ``TXUTile.tick`` and
``_schedule`` are the one instance scheduler, and the kernel derives its
tile sections and instance loops from them (:mod:`repro.sim.derive`) with
the generated steppers in place of the interpreted step. A blocked-only instance is *parked* on the
resource that refused it (``Instance.park``: the tile's memory port or
the unit's spawn out-buffer) and is not stepped again until that resource
has room or a response reset its ``wake_at``.
``stats()["engine"]`` reports the steps made and skipped
(``instance_steps`` / ``parked_skips``).

Caching: each generated module is content-addressed. The digest folds
its source (a pure function of what it describes: the netlist, or one
task's program) together with :func:`repro.fingerprint.code_fingerprint`
— the same discipline as ``ResultCache`` — so editing anything under
``src/repro`` rolls every module over and a stale one can never be
replayed. Modules are kept in an in-process cache and mirrored,
write-only, to ``<cache-dir>/kernels/<digest>.py`` for inspection.

Instrumentation is generated, not interpreted: with a change-driven
observer attached every guard block sets its component's bit in a local
integer, the commit loops set the bits of each moved channel's watchers
and flip the channel's own bit in another (one both popped and pushed
keeps its occupancy and ends clear), and the kernel hands ``on_change``
the two bit sets after each cycle it executes; a traced
task unit's stepper module calls ``analysis_event`` at the three sites it
inlines (a memory node's issue, a sync with no children outstanding, the
return-value store); the tile's own methods it calls emit the rest.
Both fold into the source (hence the digest), and an uninstrumented
design's source contains neither. A host profiler's clock is generated
too, into a profiled shell of its own. What the codegen does not cover
(observers without ``on_change``, unrecognized component classes or
ones written outside the derivable subset, exotic IR) runs on the dense
oracle — total and bit-identical, just slower — with the reason
recorded in ``Simulator.compiled_fallback``.
"""

from __future__ import annotations

import hashlib
import re
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.errors import SimulationError
from repro.fingerprint import atomic_writer, code_fingerprint, default_cache_dir
from repro.ir import opsem
from repro.ir.instructions import (
    GEP,
    Alloca,
    BinaryOp,
    Br,
    Cast,
    CondBr,
    Detach,
    FCmp,
    ICmp,
    Load,
    Reattach,
    Ret,
    Select,
    Sync,
)
from repro.ir.types import FloatType, IntType
from repro.ir.values import Constant, GlobalVariable
from repro.memory import (Cache, DataBox, Demux, DRAMModel,
                          RoundRobinArbiter, Scratchpad)
from repro.memory.databox import MemTag
from repro.memory.messages import MemRequest
from repro.sim import engine as _engine
from repro.sim.derive import (UnsupportedDesign, expression, section,
                              tile_loop, tile_section)
from repro.task.task_unit import TaskUnit
from repro.task.txu import AWAIT_MEM, CALL, GO, OUTBUF, PARKED, PORT

__all__ = [
    "prepare_kernel",
    "generate_source",
    "generate_modules",
    "kernel_digest",
    "kernel_cache_dir",
    "kernel_cache_info",
    "clear_kernel_cache",
]


#: in-process cache: digest -> exec'd module namespace (a shell holds
#: ``make_kernel``, a stepper module ``make_steppers``)
_MODULES: Dict[str, dict] = {}
#: process-wide tally of what :func:`_load` compiled and what it reused
_CACHE_INFO = {"shells_compiled": 0, "shells_reused": 0,
               "steppers_compiled": 0, "steppers_reused": 0,
               "compile_seconds": 0.0}


def kernel_cache_dir() -> Path:
    """On-disk home of generated kernel sources (content-addressed)."""
    return default_cache_dir() / "kernels"


def kernel_digest(source: str) -> str:
    """Content address of a generated kernel: the specialized source
    (a pure function of the elaborated design) plus the ``src/repro``
    code fingerprint, so editing the simulator invalidates every cached
    kernel — the ``ResultCache`` hashing discipline."""
    digest = hashlib.sha256()
    digest.update(source.encode("utf-8"))
    digest.update(b"\0")
    digest.update(code_fingerprint().encode("ascii"))
    return digest.hexdigest()


def clear_kernel_cache():
    """Drop the in-process kernel module cache (tests)."""
    _MODULES.clear()


def kernel_cache_info() -> Dict[str, float]:
    """Modules compiled vs reused since this process started, by kind, and
    the seconds spent compiling: schedule-dependent, so telemetry only."""
    return dict(_CACHE_INFO)


def _store_kernel_source(digest: str, source: str) -> Optional[Path]:
    """Mirror the kernel source to disk (atomic, best-effort)."""
    try:
        root = kernel_cache_dir()
        path = root / (digest + ".py")
        if path.exists():
            return path
        root.mkdir(parents=True, exist_ok=True)
        with atomic_writer(path) as fh:
            fh.write(source)
        return path
    except OSError:
        return None


def _fallback_reason(sim) -> Optional[str]:
    """Instrumentation / topology checks that force the dense engine:
    an observer with only ``on_cycle`` (it needs a real tick of every
    component every cycle) or a component unknown to the codegen."""
    if (sim.observer is not None
            and getattr(sim.observer, "on_change", None) is None):
        return (f"observer {type(sim.observer).__name__} has no on_change "
                f"(per-cycle sampling needs real ticks)")
    # explicit: a no-op guard is a semantic contract, diff-tested per class
    known = (RoundRobinArbiter, Demux, Cache, DRAMModel, Scratchpad,
             DataBox, TaskUnit)
    for comp in sim.components:
        if not isinstance(comp, known):
            return f"unsupported component class {type(comp).__name__}"
    return None


def _load(kind: str, source: str) -> dict:
    """The exec'd namespace of a generated module (``kind``: "shell" or
    "stepper"), compiled on first sight of its digest in this process."""
    digest = kernel_digest(source)
    module = _MODULES.get(digest)
    if module is not None:
        _CACHE_INFO[kind + "s_reused"] += 1
        return module
    path = _store_kernel_source(digest, source)
    filename = str(path) if path is not None else f"<{kind} {digest[:12]}>"
    module = {"__name__": f"repro_{kind}_{digest[:12]}"}
    start = perf_counter()
    try:
        exec(compile(source, filename, "exec"), module)
    except (SyntaxError, ValueError) as exc:
        # a codegen bug: fail loudly, never hide behind the dense engine
        raise SimulationError(
            f"generated {kind} {digest} does not load ({filename}): "
            f"{type(exc).__name__}: {exc}") from exc
    _CACHE_INFO["compile_seconds"] += perf_counter() - start
    _CACHE_INFO[kind + "s_compiled"] += 1
    _MODULES[digest] = module
    return module


def prepare_kernel(sim):
    """Return ``(kernel, None)`` for a supported design, else
    ``(None, reason)``. ``kernel(sim, done, start, max_cycles, mlog)``
    runs the simulation exactly like the dense engine would. Generated
    text that does not compile raises :class:`SimulationError`."""
    reason = _fallback_reason(sim)
    if reason is not None:
        return None, reason
    try:
        shell, steppers, ctx = _generate(sim)
    except UnsupportedDesign as exc:
        return None, str(exc)
    ctx["steppers"] = tuple(
        _load("stepper", text)["make_steppers"](ctx, objs)
        for text, objs in steppers)
    sim.compiled_digest = kernel_digest(
        shell + "".join(text for text, _objs in steppers))
    return _load("shell", shell)["make_kernel"](ctx), None


def generate_modules(sim) -> List[str]:
    """The texts :func:`prepare_kernel` compiles, each cached and mirrored
    under its own :func:`kernel_digest`: the netlist shell, then one
    stepper module per task unit in registration order."""
    shell, steppers, _ctx = _generate(sim)
    return [shell] + [text for text, _objs in steppers]


def generate_source(sim) -> str:
    """The specialized kernel source for ``sim``'s design, its modules
    end to end. Deterministic: the same elaborated design always yields
    byte-identical source (the precondition for content-addressed
    caching)."""
    return "".join(generate_modules(sim))


# ---------------------------------------------------------------------------
# codegen
# ---------------------------------------------------------------------------
#
# Two kinds of generated module, split along what their text depends on.
# The netlist *shell*, one per topology:
#
#     def make_kernel(ctx):
#         (_o0, _o1, ...) = ctx["objects"]   # per-sim object references
#         (_mk0, ...) = ctx["steppers"]      # one factory per task unit
#         def kernel(sim, done, start, max_cycles, mlog):
#             <aliases, one u<k>_t<ti>k = _mk<j>(...) per tile>
#             try:
#                 while True:           # one iteration per executed cycle
#                     <guarded component ticks, registration order>
#                     <inline commit: pop the channels in dq, push dl's>
#                     <idle/quiet accounting, stall check>
#                     <quiescent fast-forward>
#             finally:
#                 <sync scalar counters back onto sim>
#         return kernel
#
# and the *stepper module*, one per task unit (one TXU design, Stage 2):
#
#     def make_steppers(ctx, objs):
#         (_o0, _o1, ...) = objs             # numbered within the unit
#         def mk(T, Tf, Tfc, Tfs, Tfi, Tsu, cRi, R, TI, CP, dl, ev, act):
#             <one stepper _s<b> per owned block, Td = {block: stepper}>
#             <its maturing-node scans _w<b>, Tw = {block: scan or _wp}>
#             <def k(cycle, room): TXUTile._schedule, derived, calling Td>
#             return k
#         return mk
#
# Everything design-shaped is baked in as literals, everything
# per-simulation (channel/component/IR objects) arrives through ctx or as
# an argument of ``mk``, so equal text means equal behaviour and each
# cached module serves every sim that generates its text. A stepper
# module's text is a function of the task program (node indices,
# dependency chains, wrap masks, frame layout, global addresses), SID/port,
# node latencies, request-channel capacity and the trace flag (and of
# ``TXUTile.tick``, the scheduler it holds) -- not of
# Ntiles, queues or the memory system: every design point of a program
# shares it. The shell's is a function of the netlist: components, tile
# counts, channel indices, capacities and fan-ins and the queue policy are
# literals; every attribute a derived plumbing section reads (latencies,
# tree levels, cache geometry and MSHR count, data-box entries) and the
# queue depth are read from the component in the preamble, so configs
# that differ only there share one shell.

#: what the hand-written kernel text (``_emit_unit``, the loop of
#: ``_generate``) assigns per cycle; a derived section brings its own. CPython
#: reaches only a frame's first 256 locals in one instruction and the aliases
#: (eight per tile) outnumber that, so the kernel names these first
_TEMPORARIES = ("msg dyid_ en_ ix_ _ tt_ k v busy tw w w2 "
                "span").split()


class _Emitter:
    """Collects one module's ctx objects and source lines with
    deterministic naming.

    Channels are addressed by their index in ``sim.channels``
    (registration order): the kernel keeps pending-push / pending-pop /
    push-counter state in flat preallocated lists (``CP``/``CQ``/``CU``)
    indexed by that integer, and ``c<K>i`` aliases channel K's item
    deque (``_items`` is assigned once in the constructor). A push is
    ``CP[K] = msg`` plus appending K to the push list ``dl``; a pop is
    ``CQ[K] = 1`` plus appending K to the pop list ``dq`` — the
    end-of-cycle commit pops the channels in ``dq`` and appends to those
    in ``dl``, and nothing else. No pop is counted: ``_sync_totals``
    derives ``total_popped`` from the pushes and the change in queue
    length (``CL``, the lengths at the last sync). A stepper module's
    emitter has none: whatever is channel-shaped reaches its text as a
    factory argument, ``named`` (``(channel, name)`` pairs) spelling
    ``c<name>i`` and ``<name>``."""

    def __init__(self, channels=(), named=()):
        self.objs: List[object] = []
        self._obj_names: Dict[int, str] = {}
        self.pre: List[str] = []    # kernel preamble (aliases, bound methods)
        self.temps = dict.fromkeys(_TEMPORARIES)  # named ahead of it, in order
        self.channels = list(channels)
        self._chan_idx = {id(ch): k for k, ch in enumerate(self.channels)}
        self._chan_idx.update((id(ch), name) for ch, name in named)
        self._chan_alias = {name for _ch, name in named}

    def ref(self, obj) -> str:
        """Name of ``obj`` in the module's object tuple (registered on
        first use; the objs list keeps every referenced object alive so
        id() keys stay unique)."""
        name = self._obj_names.get(id(obj))
        if name is None:
            name = "_o%d" % len(self.objs)
            self._obj_names[id(obj)] = name
            self.objs.append(obj)
        return name

    # -- flat channel ops --------------------------------------------------

    def ci(self, ch):
        """Flat index of ``ch`` (emits its item-deque alias on first use)."""
        k = self._chan_idx.get(id(ch))
        if k is None:
            raise UnsupportedDesign(
                f"channel {ch.name} not registered with the simulator")
        if k not in self._chan_alias:
            self._chan_alias.add(k)
            self.pre.append("c%di = CI[%d]" % (k, k))
        return k


#: (opsem function, operand type, result type) -> opsem_lines' plan
_PLANS: Dict[tuple, tuple] = {}


def _spell(fn, bound: dict, objects: list) -> str:
    """``fn``'s returned expression as kernel text: a name bound to a string
    is that (atomic) text, an unbound parameter stays ``@name@``, anything
    else a placeholder reaches (through a bound object or module global) is
    a literal, or ``@#<i>@`` for the object appended to ``objects``."""
    def fill(match):
        head, *attrs = match.group(1).split(".")
        if head not in bound and head in fn.__code__.co_varnames:
            return match.group(0)
        value = bound[head] if head in bound else fn.__globals__[head]
        for attr in attrs:
            value = getattr(value, attr)
        if isinstance(value, str):
            return value
        literal = _fmt_const(value)
        if literal is None:
            objects.append(value)
            literal = "@#%d@" % (len(objects) - 1)
        return literal
    return re.sub(r"@([\w.]+)@", fill, expression(fn))


def _fmt_const(value) -> Optional[str]:
    """Literal source for a constant, or None when it cannot be spelled
    (bools and non-finite floats go through the object table instead)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or value != value or value in (float("inf"), float("-inf")):
        return None
    return "(%r)" % (value,)


class _StepperGen:
    """Emits one specialized stepper function per owned block of a task
    unit: the straight-line unrolling of ``TXUTile._step_instance`` +
    ``_maybe_transition`` for that block's dataflow graph -- readiness, the
    one-firing-per-node hazard, node firing and block entry; everything
    else (a call, a spawn, a suspend, a finish) is the tile's own method.
    A stepper, like ``_step_instance``, only reports what the step did
    (``GO``, ``QUIET``, or the resource that refused it: ``PORT``,
    ``OUTBUF``, ``CALL``); the instance loop that called it,
    ``TXUTile._schedule`` derived into the same module, turns that into the
    instance's wake time and park and issues a return-value store. The
    steppers live inside the unit's ``mk`` factory (see
    :func:`_stepper_module`), so everything tile- or kernel-bound is
    written as a factory parameter — ``T`` (the tile), ``Tf``/``Tfc``/
    ``Tfs``/``Tfi``/``Tsu`` (its ``_fired`` set, ``_fire_call``,
    ``_fire_spawn``, ``_finish``, ``_suspend``), ``cRi``/``R`` (request
    channel deque and flat index), ``TI`` (tile index), ``CP``/``dl``/
    ``act`` (the kernel's pending pushes, push list and one-cell activity
    flag) and ``ev`` (the unit's ``analysis_event``, called only when
    ``traced``) — while SID, port and capacities are baked in so
    ``_fire_memory`` is inlined flat ops."""

    def __init__(self, em: _Emitter, unit, traced: bool):
        self.em = em          # the stepper module's own object table
        self.unit = unit
        self.traced = traced
        # _emit_unit has checked that every tile agrees on these three
        self.task = unit.tiles[0].task
        self.latencies = unit.tiles[0].latencies
        self.rocap = unit.tiles[0].request_out.capacity

    # -- value resolution (mirrors TXUTile._resolve) -----------------------

    def rv(self, v) -> str:
        if isinstance(v, Constant):
            lit = _fmt_const(v.value)
            return lit if lit is not None else self.em.ref(v.value)
        if isinstance(v, GlobalVariable):
            if v.address is None:
                raise UnsupportedDesign(
                    f"global @{v.name} has no address at codegen time")
            return "(%r)" % (v.address,)
        return "env[%s]" % self.em.ref(v)

    def rvi(self, v) -> str:
        """Resolve in an ``int(...)`` context, skipping the coercion when
        the operand is statically an int (a literal or a global's address)."""
        if isinstance(v, GlobalVariable) or isinstance(v, Constant) \
                and isinstance(v.value, int) and not isinstance(v.value, bool):
            return self.rv(v)
        return "int(%s)" % self.rv(v)

    def rvf(self, v) -> str:
        if isinstance(v, Constant) and isinstance(v.value, (int, float)) \
                and not isinstance(v.value, bool):
            lit = _fmt_const(float(v.value))
            if lit is not None:
                return lit
        return "float(%s)" % self.rv(v)

    # -- helpers -----------------------------------------------------------

    def opsem_lines(self, ir, tgt: str, ind: str) -> List[str]:
        """A BinaryOp / ICmp / FCmp / Cast node: its opsem table entry and
        the ``IntType.wrap`` / ``to_f32`` around it, spelled once per process
        and types, with the operand texts (coerced as ``eval_pure`` does)
        substituted; an operand used twice is read once into a local."""
        source = ir.operands[0].type
        if isinstance(ir, BinaryOp):
            table = opsem.INT_OPS if isinstance(source, IntType) \
                else opsem.FLOAT_OPS
            key = ir.op
        elif isinstance(ir, (ICmp, FCmp)):
            table = opsem.ICMP if isinstance(ir, ICmp) else opsem.FCMP
            key = ir.predicate
        elif isinstance(ir, Cast):
            table, key = opsem.CASTS, ir.kind
        else:
            raise UnsupportedDesign(
                f"TXU codegen cannot execute {type(ir).__name__}")
        fn = table.get(key)
        if fn is None:
            raise UnsupportedDesign(f"ir/opsem.py has no {ir.opcode}")
        plan = _PLANS.get((fn, source, ir.type))
        if plan is None:
            objects: list = []
            expr = _spell(fn, {"bits": getattr(source, "bits", 32)}, objects)
            if isinstance(ir.type, IntType) and not isinstance(ir, (ICmp, FCmp)):
                expr = _spell(IntType.wrap, {"self": ir.type,
                                             "value": "(%s)" % expr}, objects)
            elif isinstance(ir, BinaryOp):
                expr = _spell(opsem.to_f32, {"value": "(%s)" % expr}, objects)
            read = _StepperGen.rvi if isinstance(source, IntType) \
                or isinstance(ir, ICmp) else _StepperGen.rvf \
                if isinstance(source, FloatType) else _StepperGen.rv
            trap = opsem.DIVISIONS.get(key) if table is opsem.INT_OPS else None
            # per operand: placeholder, local, uses (+1: a divisor's check)
            operands = tuple(("@%s@" % name, name + "_", expr.count(
                "@%s@" % name) + (trap is not None and i == 1))
                for i, name in enumerate(fn.__code__.co_varnames[
                    :len(ir.operands)]))
            plan = _PLANS[fn, source, ir.type] = (
                expr, tuple(objects), read, operands, trap)
        expr, objects, read, operands, trap = plan
        for i, obj in enumerate(objects):
            expr = expr.replace("@#%d@" % i, self.em.ref(obj))
        L, texts = [], []
        for (placeholder, local, uses), value in zip(operands, ir.operands):
            text = read(self, value)
            if uses > 1 and not (text.startswith("(") or text.isidentifier()):
                L.append(ind + "%s = %s" % (local, text))
                text = local
            expr = expr.replace(placeholder, text)
            texts.append(text)
        if trap is not None:
            L.append(ind + "if %s == 0:" % texts[1])
            L.append(ind + "    raise SimulationError(%r)" % trap)
        L.append(ind + "%s = %s" % (tgt, expr))
        return L

    # -- node firing (TXUTile._fire; a pure node is opsem's) --------------

    def fire_lines(self, node, ind: str) -> List[str]:
        ir = node.inst
        kind = node.kind
        tgt = "env[%s]" % self.em.ref(ir)
        L: List[str] = []

        if kind == "regread":
            L.append(ind + "%s = inst.regs.get(%s, 0)"
                     % (tgt, self.em.ref(ir.pointer)))
        elif kind == "regwrite":
            L.append(ind + "inst.regs[%s] = %s"
                     % (self.em.ref(ir.pointer), self.rv(ir.value)))
        elif kind == "nop":
            if not isinstance(ir, Alloca):
                raise UnsupportedDesign(f"nop node is not an alloca: {ir!r}")
            if ir.in_frame:
                if self.unit.frame_size == 0:
                    L.append(ind + "raise SimulationError(%r)"
                             % (f"{self.unit.name}: task has no frame "
                                f"storage",))
                else:
                    offset = self.task.frame_offsets[ir]
                    L.append(ind + "%s = %d + inst.entry.dyid * %d + %d"
                             % (tgt, self.unit.frame_base,
                                self.unit.frame_size, offset))
            else:
                L.append(ind + "%s = %s(%s)" % (tgt, self.em.ref(opsem.RegSlot),
                                                self.em.ref(ir)))
        elif isinstance(ir, Select):
            cond, if_true, if_false = ir.operands
            L.append(ind + "%s = (%s) if (%s) else (%s)"
                     % (tgt, self.rv(if_true), self.rv(cond),
                        self.rv(if_false)))
        elif isinstance(ir, GEP):
            L.extend(self._gep_lines(ir, tgt, ind))
        else:
            L.extend(self.opsem_lines(ir, tgt, ind))

        # chained assignment keeps the hoisted per-node local in sync so a
        # 0-latency dependent sees the fresh deadline within the same call
        L.append(ind + "nd[%d] = dn%d = cycle + %d"
                 % (node.index, node.index, self.latencies.get(kind, 1)))
        return L

    def _gep_lines(self, ir, tgt: str, ind: str) -> List[str]:
        terms = ["%s * %d" % (self.rvi(idx), stride)
                 for idx, stride in zip(ir.indices, ir.strides)]
        base = ir.base
        static_base = (isinstance(base, Constant)
                       or isinstance(base, GlobalVariable))
        if static_base:
            expr = " + ".join([self.rvi(base)] + terms)
            return [ind + "%s = %s" % (tgt, expr)]
        L = [ind + "ba = %s" % self.rv(base),
             ind + "if type(ba) is %s:" % self.em.ref(opsem.RegSlot),
             ind + "    raise SimulationError(%r)"
             % ("address arithmetic on a register slot — scalar allocas "
                "may only be loaded/stored directly",)]
        expr = " + ".join(["int(ba)"] + terms)
        L.append(ind + "%s = %s" % (tgt, expr))
        return L

    # -- inlined _fire_memory ----------------------------------------------

    def mem_fire_lines(self, node, key: str, ind: str) -> List[str]:
        """The ``elif``-chain tail of a load/store node attempt (mirrors
        ``TXUTile._fire_memory``): already-issued and backpressure checks,
        then the flat push of the request."""
        ir = node.inst
        L = [ind + "elif T._mem_issued_this_cycle:",
             ind + "    b |= %d" % PORT,
             ind + "elif len(cRi) < %d and CP[R] is None:" % self.rocap]
        ptr = ir.pointer
        if isinstance(ptr, (Constant, GlobalVariable)):
            addr = self.rvi(ptr)
        else:
            L.append(ind + "    a_ = %s" % self.rv(ptr))
            L.append(ind + "    if type(a_) is %s:"
                     % self.em.ref(opsem.RegSlot))
            L.append(ind + "        raise SimulationError(%r)"
                     % ("register access classified as memory op",))
            addr = "int(a_)"
        ref = self.em.ref
        tag = "%s(%d, TI, inst.uid, %d)" % (ref(MemTag), self.unit.sid,
                                            node.index)
        if isinstance(ir, Load):
            # positional: a keyword call costs twice the allocation
            req = ('%s(%s, "load", %s, %d, None, %d)'
                   % (ref(MemRequest), tag, addr, ir.type.size_bytes,
                      self.unit.port))
        else:
            req = ('%s(%s, "store", %s, %d, %s(%s, %s), %d)'
                   % (ref(MemRequest), tag, addr, ir.value.type.size_bytes,
                      ref(opsem.value_to_raw), ref(ir.value.type),
                      self.rv(ir.value), self.unit.port))
        if self.traced:
            L.append(ind + "    rq_ = %s" % req)
            L.append(ind + '    ev("mem", "%s addr=%%d" %% rq_.addr, '
                     '{"gid": inst.entry.gid, "op": rq_.op, "addr": rq_.addr, '
                     '"size": rq_.size, "sid": %d, "node": %d, "inst": %s})'
                     % ("load" if isinstance(ir, Load) else "store",
                        self.unit.sid, node.index, self.em.ref(ir)))
            req = "rq_"
        L.append(ind + "    CP[R] = %s" % req)
        L.append(ind + "    dl.append(R)")
        L.append(ind + "    T._mem_issued_this_cycle = True")
        L.append(ind + "    nd[%d] = %d" % (node.index, AWAIT_MEM))
        L.append(ind + "    fired.add(%s)" % key)
        L.append(ind + "    f = 1")
        L.append(ind + "else:")
        L.append(ind + "    T._mem_blocked = True")
        L.append(ind + "    b |= %d" % PORT)
        return L

    # -- block entry (mirrors TXUTile._enter_block) ------------------------

    def enter_lines(self, target, ind: str) -> List[str]:
        dfg = self.task.dfgs.get(target)
        if dfg is None:
            return [ind + "raise SimulationError(%r)"
                    % (f"task {self.task.name}: control left the task "
                       f"region into {target.name}",)]
        return [ind + "inst.block = %s" % self.em.ref(target),
                ind + "inst.node_done = [B] * %d" % len(dfg.nodes)]

    # -- the whole stepper -------------------------------------------------

    def stepper(self, name: str, block) -> List[str]:
        em = self.em
        dfg = self.task.dfgs[block]
        nodes = dfg.nodes
        body = nodes[:-1]
        term_node = nodes[-1]

        L = ["def %s(inst, cycle):" % name,
             "    nd = inst.node_done",
             "    env = inst.env",
             "    fired = Tf",
             "    f = d = b = 0"]
        # hoist every body node's done-cycle into a local with one unpack
        # of the block's node_done list (its last slot is the terminator's,
        # never written); a node that has not fired holds the sentinel B,
        # an issued memory or call node AWAIT_MEM / AWAIT_CALL
        L.append("    (%s_) = nd" % "".join("dn%d, " % n.index for n in body))

        def deps(node) -> str:
            return " and ".join("dn%d <= cycle" % dep
                                for dep in node.deps)

        for node in body:
            idx = node.index
            key = em.ref((block, idx))
            cond = "dn%d == B" % idx
            dc = deps(node)
            if dc:
                cond += " and " + dc
            L.append("    if %s:" % cond)
            L.append("        if %s in fired:" % key)
            L.append("            d = 1")
            if node.kind in ("load", "store"):
                L.extend(self.mem_fire_lines(node, key, "        "))
            elif node.kind == "call":
                L.append("        elif Tfc(inst, %s, cycle):" % em.ref(node))
                L.append("            fired.add(%s)" % key)
                L.append("            f = 1")
                L.append("        else:")
                L.append("            b = %d" % CALL)
            else:
                L.append("        else:")
                L.extend(self.fire_lines(node, "            "))
                L.append("            fired.add(%s)" % key)
                L.append("            f = 1")

        # -- transition (mirrors _maybe_transition) ------------------------
        # (an issued memory or call node's AWAIT_* exceeds every cycle);
        # the latest node, the likeliest still pending, is tested first,
        # and the terminator's deps, all body nodes, need no test of their own
        trans = ["dn%d <= cycle" % n.index for n in reversed(body)]
        L.append("    if %s:" % " and ".join(trans or ["True"]))
        term = term_node.inst
        if isinstance(term, Detach):
            L.append("        if Tfs(inst, %s):" % em.ref(term))
            L.extend(self.enter_lines(term.continuation, "            "))
            L.append("            f = 1")
            L.append("        else:")
            L.append("            b = %d" % OUTBUF)
        elif isinstance(term, Sync):
            L.append("        if inst.entry.child_count > 0:")
            L.append("            Tsu(inst, %s)"
                     % em.ref(term.continuation))
            L.append("        else:")
            if self.traced:
                L.append('            ev("sync-pass", f"gid={inst.entry.gid}", '
                         '{"gid": inst.entry.gid})')
            L.extend(self.enter_lines(term.continuation, "            "))
            L.append("        f = 1")
        elif isinstance(term, Br):
            L.extend(self.enter_lines(term.dest, "        "))
            L.append("        f = 1")
        elif isinstance(term, CondBr):
            L.append("        if %s:" % self.rv(term.cond))
            L.extend(self.enter_lines(term.if_true, "            "))
            L.append("        else:")
            L.extend(self.enter_lines(term.if_false, "            "))
            L.append("        f = 1")
        elif isinstance(term, (Reattach, Ret)):
            retval = self.rv(term.value) if isinstance(term, Ret) \
                and term.value is not None else "None"
            L.append("        Tfi(inst, %s)" % retval)
            L.append("        f = 1")
        else:
            raise UnsupportedDesign(
                f"terminator {type(term).__name__} not supported")

        # -- the report (mirrors _step_instance's): the scheduler it returns
        # to, TXUTile.tick, sets wake_at and park from it
        L.extend(["    if f:",
                  "        act[0] = 1",
                  "        return %d" % GO,
                  "    return %d if d else b" % GO])
        return L

    # -- the maturing-node scan (mirrors TXUTile._soonest) -----------------

    def soonest(self, name: str, block) -> List[str]:
        """``TXUTile._soonest`` for ``block``, over only the nodes that can
        still be ahead of ``cycle`` after a step that fired nothing: one of
        latency 2 or more (fired at most a cycle before), or a memory or
        call node (issued, or retired at ``cycle``). No such node: no def,
        and the block maps to ``_wp``, which returns PARKED."""
        nodes = [n.index for n in self.task.dfgs[block].nodes[:-1]
                 if n.kind in ("load", "store", "call")
                 or self.latencies.get(n.kind, 1) >= 2]
        if not nodes:
            return []
        L = ["def %s(inst, cycle):" % name, "    nd = inst.node_done"]
        if len(nodes) == 1:
            return L + ["    w = nd[%d]" % nodes[0],
                        "    return w if w > cycle else B"]
        L.append("    w = B")
        for idx in nodes:
            L.extend(["    d = nd[%d]" % idx,
                      "    if cycle < d < w:",
                      "        w = d"])
        return L + ["    return w"]


def _stepper_module(gen: _StepperGen) -> str:
    """Source of one task unit's stepper module. A task unit is ONE TXU
    design replicated Ntiles times and instantiated by every design point
    of its program: the per-block steppers and the tile's instance loop
    that calls them are generated and compiled once, with everything tile-
    or kernel-bound arriving as ``mk``'s arguments and objects numbered
    within the unit."""
    unit, ref = gen.unit, gen.em.ref
    body: List[str] = []
    w = body.append
    entries, scans = [], []
    for bi, block in enumerate(gen.task.blocks):
        body.extend(gen.stepper("_s%d" % bi, block))
        entries.append("%s: _s%d" % (ref(block), bi))
        scan = gen.soonest("_w%d" % bi, block)
        body.extend(scan)
        scans.append("%s: %s" % (ref(block), "_w%d" % bi if scan else "_wp"))
    w("Td = {%s}" % ", ".join(entries))
    w("Tw = {%s}" % ", ".join(scans))
    # the instance loop that calls them: TXUTile._schedule, derived
    loop = tile_loop(gen.em, unit.tiles[0], gen.traced)
    body.extend(gen.em.pre)
    body.extend(loop)
    w("return k")
    lines = ['"""Autogenerated TXU steppers of one task unit (see '
             'repro.sim.compile)."""',
             "def make_steppers(ctx, objs):",
             "    (%s) = objs" % "".join(
                 "_o%d, " % i for i in range(len(gen.em.objs)))]
    lines.append(_CTX_ERROR)
    lines.append("    B = %d" % PARKED)
    lines.append("    def _wp(inst, cycle):")
    lines.append("        return B")
    lines.append("    def mk(T, Tf, Tfc, Tfs, Tfi, Tsu, cRi, R, TI, CP, dl, ev, "
                 "act):")
    lines.extend("        " + line for line in body)
    lines.append("    return mk")
    return "\n".join(lines) + "\n"


def _emit_unit(em: _Emitter, k: int, unit, tick, busy, skip, sdefs, mods,
               clock):
    """Fully inlined TaskUnit tick: queue/join plumbing via guarded real
    helper calls, then each tile's section -- ``TXUTile.tick``, the gate of
    the instance scheduler, derived by :func:`tile_section` -- calling the
    tile's instance loop from the unit's stepper module (appended to
    ``mods``), which a profiled shell ``clock``s as its task's row."""
    if not unit.tiles:
        raise UnsupportedDesign(f"{unit.name}: task unit has no tiles")
    for t in unit.tiles:
        if t.task is not unit.tiles[0].task:
            raise UnsupportedDesign(f"{unit.name}: tiles disagree on task")
        if t.latencies != unit.tiles[0].latencies:
            raise UnsupportedDesign(
                f"{unit.name}: tiles disagree on latency table")
        if t.request_out.capacity != unit.tiles[0].request_out.capacity:
            raise UnsupportedDesign(
                f"{unit.name}: tiles disagree on request-channel capacity")

    u = "u%d" % k
    em.pre.append("%s = %s" % (u, em.ref(unit)))
    em.pre.append("%sq = %s.queue" % (u, u))
    em.pre.append("%sqf = %sq._free" % (u, u))
    em.pre.append("%sqd = %sq.depth" % (u, u))  # Stage 3: read, not baked
    em.pre.append("%sqr = %sq._ready" % (u, u))
    em.pre.append("%sjr = %s._join_ready" % (u, u))
    em.pre.append("%sso = %s._spawn_outbuf" % (u, u))
    em.pre.append("%sjo = %s._join_outbuf" % (u, u))
    em.pre.append("%saj = %s._apply_join" % (u, u))
    em.pre.append("%sas = %s._apply_spawn" % (u, u))
    em.pre.append("%sqe = %sq.entries" % (u, u))
    em.pre.append("%ssj = %s._send_join" % (u, u))
    traced = unit.trace is not None and unit.trace.enabled
    si, ji = em.ci(unit.spawn_in), em.ci(unit.join_in)
    so, jo = em.ci(unit.spawn_out), em.ci(unit.join_out)

    tiles = []
    for ti, t in enumerate(unit.tiles):
        tn = "%s_t%d" % (u, ti)
        em.pre.append("%s = %s" % (tn, em.ref(t)))
        em.pre.append("%si = %s.instances" % (tn, tn))
        tiles.append((tn, em.ci(t.response_in), t))

    # -- the unit's stepper factory, instantiated once per tile: <tile>k is
    # the tile's instance loop, which calls the unit's steppers
    gen = _StepperGen(_Emitter(named=((unit.tiles[0].request_out, "R"),)),
                      unit, traced)
    for ti, (tn, rc, t) in enumerate(tiles):
        ro = em.ci(t.request_out)
        sdefs.append(
            "%sk = _mk%d(%s, %s._fired, %s._fire_call, %s._fire_spawn, "
            "%s._finish, %s._suspend, c%di, %d, %d, CP, dl, %s, act)"
            % (tn, len(mods), tn, tn, tn, tn, tn, tn, ro, ro, ti,
               u + ".analysis_event" if traced else "None"))
    mods.append((_stepper_module(gen), tuple(gen.em.objs)))

    # -- the tick section --------------------------------------------------
    guard = ["c%di" % ji, "c%di" % si, u + "jr", u + "so", u + "jo",
             u + "qr"]
    for tn, rc, _t in tiles:
        guard.extend([tn + "i", "c%di" % rc, "%s._min_wake <= cycle" % tn])
    tick.append("if %s:" % " or ".join(guard))
    tick.append("    if c%di and not CQ[%d]:" % (ji, ji))
    tick.append("        msg = c%di[0]" % ji)
    tick.append("        CQ[%d] = 1" % ji)
    tick.append("        dq.append(%d)" % ji)
    tick.append("        %saj(msg, cycle)" % u)
    tick.append("    if c%di and not CQ[%d] and %sqf:" % (si, si, u))
    tick.append("        msg = c%di[0]" % si)
    tick.append("        CQ[%d] = 1" % si)
    tick.append("        dq.append(%d)" % si)
    tick.append("        %sas(msg)" % u)
    # inlined TaskUnit._dispatch: round-robin over the (static) tile
    # list for a tile with capacity, pop one READY entry, start it; the
    # loop is not entered when every tile is full
    take = ("%sqr.pop()" if unit.queue.policy == "lifo"
            else "%sqr.popleft()") % u
    nt = len(unit.tiles)
    em.pre.append("%stl = (%s,)" % (u, ", ".join(
        "(%s, %si, %d)" % (tn, tn, t.max_inflight) for tn, _rc, t in tiles)))
    caps = " or ".join("len(%si) < %d" % (tn, t.max_inflight)
                       for tn, _rc, t in tiles)
    tick.append("    if %sqr and (%s):" % (u, caps))
    tick.append("        ix_ = %s._dispatch_rr" % u)
    tick.append("        for _ in range(%d):" % nt)
    tick.append("            tt_ = %stl[ix_]" % u)
    tick.append("            if len(tt_[1]) < tt_[2]:")
    tick.append("                dyid_ = %s" % take)
    tick.append("                en_ = %sqe[dyid_]" % u)
    tick.append('                if en_.state != "READY":')
    tick.append("                    raise SimulationError(")
    tick.append('                        "task queue %%s: ready-list '
                'entry %%d in state %%s" %% (%sq.name, dyid_, en_.state))'
                % u)
    tick.append('                en_.state = "EXE"')
    tick.append("                tt_[0].start(%s._uid_counter, en_, cycle)"
                % u)
    tick.append("                %s._uid_counter += 1" % u)
    tick.append("                %s._dispatch_rr = ix_ + 1 if ix_ + 1 "
                "< %d else 0" % (u, nt))
    tick.append("                if %s.first_dispatch_cycle is None:" % u)
    tick.append("                    %s.first_dispatch_cycle = cycle" % u)
    tick.append("                break")
    tick.append("            ix_ = ix_ + 1 if ix_ + 1 < %d else 0" % nt)
    for tn, _rc, t in tiles:
        tick.append("    if %si:" % tn)
        for line in tile_section(em, tn, t):
            if line.lstrip().startswith(tn + "k("):  # the instance loop
                ind = "    " + line[:len(line) - len(line.lstrip())]
                tick.extend(clock("TaskUnit", ind))
                tick.append("    " + line)
                tick.extend(clock("TXUTile[%s]" % unit.task.name, ind))
            else:
                tick.append("    " + line)
    tick.append("    if %sjr:" % u)
    tick.append("        %ssj()" % u)
    tick.append("    if %sso and len(c%di) < %d and CP[%d] is None:"
                % (u, so, unit.spawn_out.capacity, so))
    tick.append("        CP[%d] = %sso.popleft()" % (so, u))
    tick.append("        dl.append(%d)" % so)
    tick.append("    if %sjo and len(c%di) < %d and CP[%d] is None:"
                % (u, jo, unit.join_out.capacity, jo))
    tick.append("        CP[%d] = %sjo.popleft()" % (jo, u))
    tick.append("        dl.append(%d)" % jo)

    # -- is_busy -----------------------------------------------------------
    terms = ["%sso" % u, "%sjo" % u, "%sjr" % u,
             "len(%sqf) < %sqd" % (u, u)]
    terms.extend("%si" % tn for tn, _rc, _t in tiles)
    busy.append(" or ".join(terms))

    # -- fast-forward contribution (mirrors TaskUnit.next_wake) ------------
    skip.append("if %sjr or (c%di and %sqf) or (%sqr and (%s)):"
                % (u, si, u, u, caps))
    skip.append("    tw = cycle")
    skip.append("else:")
    first = True
    for tn, _rc, _t in tiles:
        if first:
            skip.append("    w = %s._min_wake" % tn)
            first = False
        else:
            skip.append("    w2 = %s._min_wake" % tn)
            skip.append("    if w2 < w:")
            skip.append("        w = w2")
    skip.append("    if w <= cycle:")
    skip.append("        tw = cycle")
    skip.append("    elif w < tw and w < P:")
    skip.append("        tw = w")


#: what both module kinds bind from ctx before their defs; every other
#: object their text names is in the module's object table
_CTX_ERROR = '    SimulationError = ctx["SimulationError"]'


def _generate(sim) -> Tuple[str, List[Tuple[str, tuple]], dict]:
    """Walk the elaborated netlist and emit ``(shell, steppers, ctx)``:
    the shell source, one ``(source, objects)`` stepper module per task
    unit in registration order, and the shell's ctx. Deterministic for a
    given design: iteration is over registration-order lists only, names
    are assigned by traversal index, and nothing depends on id()/hash
    ordering."""

    em = _Emitter(sim.channels)
    tick: List[str] = []   # per-cycle component sections (base indent 0)
    busy: List[str] = []   # is_busy terms, registration order
    skip: List[str] = []   # fast-forward deadline contributions
    sdefs: List[str] = []  # per-tile stepper instantiations
    mods: List[Tuple[str, tuple]] = []  # stepper modules, unit order

    # a change-driven observer is attached: every guard block sets its
    # component's bit (registration order) in tk, and SUB[k] holds the bits
    # of who watches channel k (sensitivity())
    observed = getattr(sim.observer, "on_change", None) is not None
    subs: List[int] = [0] * len(em.channels)
    # a host profiler is installed: the time since the last clock reading
    # goes to a row per component class, per task's instance loop and per
    # engine phase (the idle/skip tail is measured engine.schedule)
    profiled = sim.host_profile is not None
    rows: Dict[str, int] = {}

    def clock(row: str, ind: str) -> List[str]:
        if not profiled:
            return []
        slot = rows.setdefault(row, len(rows))
        return [ind + "h1 = _ns()", ind + "ht%d += h1 - h0" % slot,
                ind + "h0 = h1"]

    comps = list(sim.components)
    for k, comp in enumerate(comps):
        guard = len(tick)  # every section opens with its ``if <guard>:``
        if isinstance(comp, TaskUnit):
            _emit_unit(em, k, comp, tick, busy, skip, sdefs, mods, clock)
        else:
            # derived from the class's own tick / is_busy / next_wake
            em.pre.append("x%d = %s" % (k, em.ref(comp)))
            lines, held, wake = section(em, "x%d" % k, comp)
            tick.extend(lines)
            busy.extend(held)
            skip.extend(wake)
            guard += 1  # ... after a comment naming that definition
        if observed:
            tick.insert(guard + 1, "    tk |= %d" % (1 << k))
            for ch in dict.fromkeys(comp.sensitivity()):
                subs[em.ci(ch)] |= 1 << k
        tick.extend(clock(type(comp).__name__, ""))

    busy_expr = " or ".join("(%s)" % t for t in busy) if busy else "0"
    nch = len(em.channels)
    # the stall windows are read at generation time and emitted as
    # literals, so the kernel digest rolls over when they change
    stalled = "idle > %d or quiet > %d" % (_engine.DEADLOCK_WINDOW,
                                           _engine.STALL_WINDOW)

    body: List[str] = []
    w = body.append
    w("%s = None" % " = ".join(em.temps))  # hotter than any alias
    w("P = %d" % PARKED)
    w("limit = start + max_cycles")
    w("cycle = sim.cycle")
    w("idle = sim._idle_cycles")
    w("quiet = sim._quiet_cycles")
    w("act = [1 if sim._activity_flag else 0]")  # a cell the steppers set
    w("sim._activity_flag = False")
    w("ticks = 0")
    w("ff = 0")
    w("dirty = sim._dirty_channels")
    # flat channel state: item deques, pending push/pop, push counters,
    # and the pushes and pops of this cycle
    w("CI = tuple([c._items for c in CH])")
    w("CN = tuple([c.name for c in CH])")
    w("CP = [None] * %d" % nch)
    w("CQ = [0] * %d" % nch)
    w("CU = [0] * %d" % nch)
    w("dl = []")
    w("dq = []")
    # absorb pre-existing pending channel state (the host pushes the
    # root spawn before run()) into the flat arrays so the first commit
    # sees it exactly like the dense engine's dirty list would
    w("i = 0")
    w("for c in CH:")
    w("    c._dirty = False")
    w("    if c._pending_pop:")
    w("        CQ[i] = 1")
    w("        c._pending_pop = False")
    w("        dq.append(i)")
    w("    v = c._pending_push")
    w("    if v is not None:")
    w("        CP[i] = v")
    w("        c._pending_push = None")
    w("        dl.append(i)")
    w("    i += 1")
    w("del dirty[:]")
    # cold-path helper: fold the flat push counters back into the real
    # channel objects (stall post-mortems and stats() read them there);
    # what was popped since the last sync is what was pushed less what the
    # queue grew by
    w("CL = [len(d) for d in CI]")
    w("def _sync_totals():")
    w("    i = 0")
    w("    for c in CH:")
    w("        n = len(CI[i])")
    w("        c.total_pushed += CU[i]")
    w("        c.total_popped += CU[i] + CL[i] - n")
    w("        CU[i] = 0")
    w("        CL[i] = n")
    w("        i += 1")
    body.extend(em.pre)
    body.extend(sdefs)
    if observed:
        # the hand-over (Simulator._tick_event's call), as bit sets over
        # registration order: tk, whoever ticked or watches a channel that
        # moved, and cm, the channels whose occupancy the commit changed
        # (one both popped and pushed holds its occupancy: its bit flips twice)
        w("tk = cm = 0")
        w("SUB = (%s)" % "".join("%d, " % bits for bits in subs))
        w("_oc = sim._on_change")
    # the hot loop allocates only acyclic objects (messages, instances,
    # small lists); pausing the cyclic collector avoids threshold-driven
    # generation-0 sweeps every few hundred cycles
    w("_gc_on = _gc.isenabled()")
    w("if _gc_on:")
    w("    _gc.disable()")
    w("try:")
    w("    while True:")
    w("        sim.cycle = cycle")
    w("        if done():")
    w("            break")
    w("        if cycle >= limit:")
    w("            raise SimulationError(")
    w('                f"simulation exceeded {max_cycles} cycles '
      'without finishing")')
    w("        act[0] = 0")
    if profiled:
        w("        h0 = _ns()")
    body.extend("        " + line for line in tick)
    w("        ticks += 1")
    w("        if dl or dq:")
    w("            for k in dq:")
    w("                CI[k].popleft()")
    w("                CQ[k] = 0")
    if observed:
        w("                tk |= SUB[k]")
        w("                cm ^= 1 << k")
    w("            for k in dl:")
    w("                CI[k].append(CP[k])")
    w("                CU[k] += 1")
    w("                CP[k] = None")
    if observed:
        w("                tk |= SUB[k]")
        w("                cm ^= 1 << k")
    w("            if mlog is not None and len(mlog) < %d:"
      % _engine.MOVEMENT_LOG_CAP)
    w("                mlog.append((cycle, tuple(sorted(set(map(CN.__getitem__, "
      "dq + dl))))))")
    body.extend(clock("channels.commit", " " * 12))
    if observed:
        w("            sim.cycle = cycle + 1")
        w("            _oc(sim, cycle, tk, cm)")
        w("            tk = cm = 0")
        body.extend(clock("observer", " " * 12))
    w("            del dq[:]")
    w("            del dl[:]")
    w("            cycle += 1")
    w("            quiet = 0")
    w("            idle = 0")
    body.extend(clock("engine.schedule", " " * 12))
    w("            continue")
    if observed:
        w("        sim.cycle = cycle + 1")
        w("        _oc(sim, cycle, tk, 0)")
        w("        tk = 0")
        body.extend(clock("observer", " " * 8))
    w("        cycle += 1")
    w("        if act[0]:")
    w("            quiet = 0")
    w("        else:")
    w("            quiet += 1")
    w("        if %s:" % busy_expr)
    w("            idle = 0")
    w("            busy = 1")
    w("        else:")
    w("            idle += 1")
    w("            busy = 0")
    w("        if %s:" % stalled)
    w("            sim.cycle = cycle")
    w("            sim._idle_cycles = idle")
    w("            sim._quiet_cycles = quiet")
    w("            _sync_totals()")
    w("            sim._check_stalls()")
    w("        if act[0]:")
    body.extend(clock("engine.schedule", " " * 12))
    w("            continue")
    w("        tw = limit")
    body.extend("        " + line for line in skip)
    w("        if not busy:")
    w("            w = cycle + %d - idle" % (_engine.DEADLOCK_WINDOW + 1))
    w("            if w < tw:")
    w("                tw = w")
    w("        w = cycle + %d - quiet" % (_engine.STALL_WINDOW + 1))
    w("        if w < tw:")
    w("            tw = w")
    w("        span = tw - cycle")
    w("        if span > 0:")
    w("            cycle += span")
    w("            quiet += span")
    w("            if not busy:")
    w("                idle += span")
    w("            ff += span")
    w("            if %s:" % stalled)
    w("                sim.cycle = cycle")
    w("                sim._idle_cycles = idle")
    w("                sim._quiet_cycles = quiet")
    w("                _sync_totals()")
    w("                sim._check_stalls()")
    body.extend(clock("engine.schedule", " " * 8))
    w("finally:")
    if profiled:
        slots = ["ht%d" % slot for slot in range(len(rows))]
        w("    sim.host_profile.add(%r, (%s))"
          % (tuple(rows), "".join(name + ", " for name in slots)))
        body[1:1] = ["h0 = h1 = %s = 0" % " = ".join(slots),
                     "from time import perf_counter_ns as _ns"]
    w("    if _gc_on:")
    w("        _gc.enable()")
    w("    sim.cycle = cycle")
    w("    sim._idle_cycles = idle")
    w("    sim._quiet_cycles = quiet")
    w("    sim._ticks_executed += ticks")
    w("    sim._component_ticks += ticks * %d" % len(comps))
    w("    sim._fast_forwarded_cycles += ff")
    w("    _sync_totals()")
    # error-state parity: a mid-cycle exception leaves this cycle's
    # pending pushes/pops on the real channel objects, exactly as the
    # dense engine would (uncommitted, marked dirty)
    w("    for k in dq:")
    w("        if CQ[k]:")
    w("            CH[k]._pending_pop = True")
    w("            CQ[k] = 0")
    w("    for k in dl:")
    w("        v = CP[k]")
    w("        if v is not None:")
    w("            CH[k]._pending_push = v")
    w("            CP[k] = None")
    w("    for k in dq + dl:")
    w("        c = CH[k]")
    w("        if not c._dirty:")
    w("            c._dirty = True")
    w("            dirty.append(c)")

    lines = ['"""Autogenerated netlist shell of a compiled-engine kernel '
             '(see repro.sim.compile)."""',
             "def make_kernel(ctx):"]
    if em.objs:
        lines.append("    (%s,) = ctx[\"objects\"]"
                     % ", ".join("_o%d" % i for i in range(len(em.objs))))
    lines.append('    (%s) = ctx["steppers"]'
                 % "".join("_mk%d, " % j for j in range(len(mods))))
    lines.append('    CH = ctx["channels"]')
    lines.append(_CTX_ERROR)
    lines.append("    import gc as _gc")
    lines.append("    def kernel(sim, done, start, max_cycles, mlog):")
    lines.extend("        " + line for line in body)
    lines.append("    return kernel")
    source = "\n".join(lines) + "\n"
    ctx = {
        "objects": tuple(em.objs),
        "channels": tuple(em.channels),
        "SimulationError": SimulationError,
    }
    return source, mods, ctx
