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

Caching: each generated module is kept in an in-process cache under the
sha256 of its text, a pure function of what it describes (the netlist,
or one task's program): within one process equal text means equal
behaviour. Nothing is written to disk. A module is compiled as
``<shell DIGEST12>`` or ``<stepper DIGEST12>`` with its lines in
:mod:`linecache`, so a traceback the :mod:`traceback` module formats
prints the kernel's line.

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
import linecache
import re
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.errors import SimulationError
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


def kernel_digest(source: str) -> str:
    """Content address of a generated kernel: the sha256 of its text, a
    pure function of the elaborated design."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def clear_kernel_cache():
    """Drop the in-process kernel module cache and its traceback lines
    (tests)."""
    for module in _MODULES.values():
        linecache.cache.pop(module["__file__"], None)
    _MODULES.clear()


def kernel_cache_info() -> Dict[str, float]:
    """Modules compiled vs reused since this process started, by kind, and
    the seconds spent compiling: schedule-dependent, so telemetry only."""
    return dict(_CACHE_INFO)


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
    filename = f"<{kind} {digest[:12]}>"
    module = {"__name__": f"repro_{kind}_{digest[:12]}", "__file__": filename}
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
    linecache.cache[filename] = (len(source), None,
                                 source.splitlines(True), filename)
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
    """The texts :func:`prepare_kernel` compiles, each cached under its
    own :func:`kernel_digest`: the netlist shell, then one
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
    """Collects one module's ctx objects and preamble with deterministic
    naming.

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
    ``c<name>i`` and ``<name>``. Either module's preamble sits at the
    same depth, eight spaces: ``pre`` holds its lines, or blocks of them,
    already there."""

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
            name = self._obj_names[id(obj)] = "_o%d" % len(self.objs)
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
            self.pre.append("        c%di = CI[%d]" % (k, k))
        return k


#: (opsem function, operand type, result type) -> opsem_text's plan
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


_INFINITIES = float("inf"), float("-inf")


def _fmt_const(value) -> Optional[str]:
    """Literal source for a constant, or None when it cannot be spelled
    (bools and non-finite floats go through the object table instead)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or value != value or value in _INFINITIES:
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

    def opsem_text(self, ir, tgt: str) -> str:
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
        lines, texts = [], []
        for (placeholder, local, uses), value in zip(operands, ir.operands):
            text = read(self, value)
            if uses > 1 and not (text.startswith("(") or text.isidentifier()):
                lines.append("                    %s = %s" % (local, text))
                text = local
            expr = expr.replace(placeholder, text)
            texts.append(text)
        if trap is not None:
            lines.append(_TRAP % (texts[1], trap))
        lines.append("                    %s = %s" % (tgt, expr))
        return "\n".join(lines)

    # -- node firing (TXUTile._fire; a pure node is opsem's) --------------

    def fire(self, node) -> str:
        """A pure node's value, at its depth in the stepper."""
        ir = node.inst
        kind = node.kind
        ref = self.em.ref
        tgt = "env[%s]" % ref(ir)
        if kind == "regread":
            text = "                    %s = inst.regs.get(%s, 0)" % (
                tgt, ref(ir.pointer))
        elif kind == "regwrite":
            text = "                    inst.regs[%s] = %s" % (
                ref(ir.pointer), self.rv(ir.value))
        elif kind == "nop":
            if not isinstance(ir, Alloca):
                raise UnsupportedDesign(f"nop node is not an alloca: {ir!r}")
            if not ir.in_frame:
                text = "                    %s = %s(%s)" % (
                    tgt, ref(opsem.RegSlot), ref(ir))
            elif self.unit.frame_size == 0:
                text = "                    raise SimulationError(%r)" % (
                    f"{self.unit.name}: task has no frame storage",)
            else:
                text = "                    %s = %d + inst.entry.dyid * " \
                    "%d + %d" % (tgt, self.unit.frame_base,
                                 self.unit.frame_size,
                                 self.task.frame_offsets[ir])
        elif isinstance(ir, Select):
            cond, if_true, if_false = ir.operands
            text = "                    %s = (%s) if (%s) else (%s)" % (
                tgt, self.rv(if_true), self.rv(cond), self.rv(if_false))
        elif isinstance(ir, GEP):
            text = self.gep_text(ir, tgt)
        else:
            text = self.opsem_text(ir, tgt)
        return text

    def gep_text(self, ir, tgt: str) -> str:
        terms = ["%s * %d" % (self.rvi(idx), stride)
                 for idx, stride in zip(ir.indices, ir.strides)]
        base = ir.base
        if isinstance(base, (Constant, GlobalVariable)):  # a static base
            return "                    %s = %s" % (
                tgt, " + ".join([self.rvi(base)] + terms))
        return _GEP % (self.rv(base), self.em.ref(opsem.RegSlot), tgt,
                       " + ".join(["int(ba)"] + terms))

    # -- inlined _fire_memory ----------------------------------------------

    def mem_fire(self, node, key: str) -> str:
        """The ``elif``-chain tail of a load/store node attempt (mirrors
        ``TXUTile._fire_memory``): already-issued and backpressure checks,
        then the flat push of the request."""
        ir = node.inst
        ref = self.em.ref
        ptr = ir.pointer
        if isinstance(ptr, (Constant, GlobalVariable)):
            check, addr = "", self.rvi(ptr)
        else:
            check = _ADDRESS % (self.rv(ptr), ref(opsem.RegSlot))
            addr = "int(a_)"
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
            check += _TRACED_ISSUE % (
                req, "load" if isinstance(ir, Load) else "store",
                self.unit.sid, node.index, ref(ir))
            req = "rq_"
        return _ISSUE % (self.rocap, check, req, node.index, key)

    # -- block entry (mirrors TXUTile._enter_block) ------------------------

    def enter(self, target, ind: str) -> str:
        dfg = self.task.dfgs.get(target)
        if dfg is None:
            return "%sraise SimulationError(%r)" % (
                ind, f"task {self.task.name}: control left the task "
                     f"region into {target.name}")
        return "%sinst.block = %s\n%sinst.node_done = [B] * %d" % (
            ind, self.em.ref(target), ind, len(dfg.nodes))

    # -- the whole stepper -------------------------------------------------

    def stepper(self, bi: int, block, out: List[str]) -> bool:
        """Block ``bi``'s stepper ``_s<bi>`` and its maturing-node scan
        ``_w<bi>`` (mirrors ``TXUTile._soonest``), appended to ``out`` (the
        module's lines); whether the scan exists. The scan reads only the
        nodes that can still be ahead of ``cycle`` after a step that fired
        nothing: one of latency 2 or more (fired at most a cycle before), or
        a memory or call node (issued, or retired at ``cycle``). No such
        node: no scan, and the block maps to ``_wp``, which returns
        PARKED."""
        ref, objs = self.em.ref, self.em.objs
        nodes = self.task.dfgs[block].nodes
        body = nodes[:-1]
        indices = [n.index for n in body]
        # hoist every body node's done-cycle into a local with one unpack
        # of the block's node_done list (its last slot is the terminator's,
        # never written); a node that has not fired holds the sentinel B,
        # an issued memory or call node AWAIT_MEM / AWAIT_CALL
        out.append(_STEPPER % (bi, "dn%d, " * len(indices) % tuple(indices)))
        matures = []
        latency = self.latencies.get
        for node in body:
            idx, kind, deps = node.index, node.kind, node.deps
            # the node's entry in the fired set: an object nothing else
            # references, so it takes the next number without a lookup
            key = "_o%d" % len(objs)
            objs.append((block, idx))
            ready = _DEP * len(deps) % tuple(deps)
            if kind == "load" or kind == "store":
                out.append(_ATTEMPT % (idx, ready, key))
                out.append(self.mem_fire(node, key))
                matures.append(idx)
            elif kind == "call":
                out.append(_CALL % (idx, ready, key, ref(node), key, CALL))
                matures.append(idx)
            else:
                # chained assignment keeps the hoisted per-node local in sync
                # so a 0-latency dependent sees the fresh deadline within the
                # same call
                cycles = latency(kind, 1)
                out.append(_PURE % (idx, ready, key, self.fire(node), idx,
                                    idx, cycles, key))
                if cycles >= 2:
                    matures.append(idx)

        # -- transition (mirrors _maybe_transition) ------------------------
        # (an issued memory or call node's AWAIT_* exceeds every cycle);
        # the latest node, the likeliest still pending, is tested first,
        # and the terminator's deps, all body nodes, need no test of their own
        out.append("            if %s:" % (" and ".join(
            map("dn%d <= cycle".__mod__, reversed(indices))) or "True"))
        term = nodes[-1].inst
        if isinstance(term, Detach):
            out.append("                if Tfs(inst, %s):" % ref(term))
            out.append(self.enter(term.continuation, " " * 20))
            out.append("                    f = 1\n"
                       "                else:\n"
                       "                    b = %d" % OUTBUF)
        elif isinstance(term, Sync):
            out.append("                if inst.entry.child_count > 0:\n"
                       "                    Tsu(inst, %s)\n"
                       "                else:" % ref(term.continuation))
            if self.traced:
                out.append('                    ev("sync-pass", '
                           'f"gid={inst.entry.gid}", {"gid": inst.entry.gid})')
            out.append(self.enter(term.continuation, " " * 20))
            out.append("                f = 1")
        elif isinstance(term, Br):
            out.append(self.enter(term.dest, " " * 16))
            out.append("                f = 1")
        elif isinstance(term, CondBr):
            out.append("                if %s:" % self.rv(term.cond))
            out.append(self.enter(term.if_true, " " * 20))
            out.append("                else:")
            out.append(self.enter(term.if_false, " " * 20))
            out.append("                f = 1")
        elif isinstance(term, (Reattach, Ret)):
            out.append("                Tfi(inst, %s)\n"
                       "                f = 1" % (
                           self.rv(term.value) if isinstance(term, Ret)
                           and term.value is not None else "None"))
        else:
            raise UnsupportedDesign(
                f"terminator {type(term).__name__} not supported")
        # -- the report (mirrors _step_instance's): the scheduler it returns
        # to, TXUTile.tick, sets wake_at and park from it
        out.append(_REPORT)
        if len(matures) == 1:
            out.append(_SCAN_ONE % (bi, matures[0]))
        elif matures:
            out.append(_SCAN % (bi, _SCAN_NODE * len(matures)
                                % tuple(matures)))
        return bool(matures)


# A stepper module's text at its depth inside ``mk``: a stepper's head,
# then per node its attempt and the tail of its kind, ...
_STEPPER = """\
        def _s%d(inst, cycle):
            nd = inst.node_done
            env = inst.env
            fired = Tf
            f = d = b = 0
            (%s_) = nd"""
_DEP = " and dn%d <= cycle"
_ATTEMPT = """\
            if dn%d == B%s:
                if %s in fired:
                    d = 1"""
_PURE = _ATTEMPT + """
                else:
%s
                    nd[%d] = dn%d = cycle + %d
                    fired.add(%s)
                    f = 1"""
_CALL = _ATTEMPT + """
                elif Tfc(inst, %s, cycle):
                    fired.add(%s)
                    f = 1
                else:
                    b = %d"""
_ISSUE = """\
                elif T._mem_issued_this_cycle:
                    b |= {port}
                elif len(cRi) < %d and CP[R] is None:
%s                    CP[R] = %s
                    dl.append(R)
                    T._mem_issued_this_cycle = True
                    nd[%d] = {await_mem}
                    fired.add(%s)
                    f = 1
                else:
                    T._mem_blocked = True
                    b |= {port}""".format(port=PORT, await_mem=AWAIT_MEM)
_ADDRESS = """\
                    a_ = %s
                    if type(a_) is %s:
                        raise SimulationError('register access classified as memory op')
"""
_TRACED_ISSUE = """\
                    rq_ = %s
                    ev("mem", "%s addr=%%d" %% rq_.addr, {"gid": inst.entry.gid, "op": rq_.op, "addr": rq_.addr, "size": rq_.size, "sid": %d, "node": %d, "inst": %s})
"""
_GEP = """\
                    ba = %s
                    if type(ba) is %s:
                        raise SimulationError('address arithmetic on a register slot — scalar allocas may only be loaded/stored directly')
                    %s = %s"""
_TRAP = """\
                    if %s == 0:
                        raise SimulationError(%r)"""
# ... the report that ends it, and a block's maturing-node scan
_REPORT = """\
            if f:
                act[0] = 1
                return {go}
            return {go} if d else b""".format(go=GO)
_SCAN_ONE = """\
        def _w%d(inst, cycle):
            nd = inst.node_done
            w = nd[%d]
            return w if w > cycle else B"""
_SCAN = """\
        def _w%d(inst, cycle):
            nd = inst.node_done
            w = B
%s            return w"""
_SCAN_NODE = """\
            d = nd[%d]
            if cycle < d < w:
                w = d
"""


def _stepper_module(gen: _StepperGen) -> str:
    """Source of one task unit's stepper module. A task unit is ONE TXU
    design replicated Ntiles times and instantiated by every design point
    of its program: the per-block steppers and the tile's instance loop
    that calls them are generated and compiled once, with everything tile-
    or kernel-bound arriving as ``mk``'s arguments and objects numbered
    within the unit."""
    ref = gen.em.ref
    lines = [""]  # the head, once every object has its number
    entries, scans = [], []
    for bi, block in enumerate(gen.task.blocks):
        scanned = gen.stepper(bi, block, lines)
        name = ref(block)
        entries.append("%s: _s%d" % (name, bi))
        scans.append("%s: _w%d" % (name, bi) if scanned else name + ": _wp")
    lines.append("        Td = {%s}\n        Tw = {%s}" % (
        ", ".join(entries), ", ".join(scans)))
    # the instance loop that calls them: TXUTile._schedule, derived
    loop = tile_loop(gen.em, gen.unit.tiles[0], gen.traced)
    lines.extend(gen.em.pre)
    lines.append(loop)
    lines.append("        return k\n    return mk\n")
    lines[0] = _STEPPERS % ("_o%d, " * len(gen.em.objs)
                            % tuple(range(len(gen.em.objs))))
    return "\n".join(lines)


_STEPPERS = '''"""Autogenerated TXU steppers of one task unit (see repro.sim.compile)."""
def make_steppers(ctx, objs):
    (%%s) = objs
    SimulationError = ctx["SimulationError"]
    B = %d
    def _wp(inst, cycle):
        return B
    def mk(T, Tf, Tfc, Tfs, Tfi, Tsu, cRi, R, TI, CP, dl, ev, act):''' % PARKED


def _emit_unit(em: _Emitter, k: int, unit, tick, busy, skip, sdefs, mods,
               clock):
    """Fully inlined TaskUnit tick: queue/join plumbing via guarded real
    helper calls, then each tile's section -- ``TXUTile.tick``, the gate of
    the instance scheduler, derived by :func:`tile_section` -- calling the
    tile's instance loop from the unit's stepper module (appended to
    ``mods``), which a profiled shell ``clock``s as its task's row (an
    unprofiled one has no ``clock``)."""
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
    em.pre.append(_UNIT_ALIASES % {"u": u, "unit": em.ref(unit)})
    traced = unit.trace is not None and unit.trace.enabled
    si, ji = em.ci(unit.spawn_in), em.ci(unit.join_in)
    so, jo = em.ci(unit.spawn_out), em.ci(unit.join_out)

    tiles = []
    for ti, t in enumerate(unit.tiles):
        tn = "%s_t%d" % (u, ti)
        em.pre.append("        %s = %s\n        %si = %s.instances"
                      % (tn, em.ref(t), tn, tn))
        tiles.append((tn, em.ci(t.response_in), t))

    # -- the unit's stepper factory, instantiated once per tile: <tile>k is
    # the tile's instance loop, which calls the unit's steppers
    gen = _StepperGen(_Emitter(named=((unit.tiles[0].request_out, "R"),)),
                      unit, traced)
    for ti, (tn, rc, t) in enumerate(tiles):
        ro = em.ci(t.request_out)
        sdefs.append(
            "        %sk = _mk%d(%s, %s._fired, %s._fire_call, %s._fire_spawn, "
            "%s._finish, %s._suspend, c%di, %d, %d, CP, dl, %s, act)"
            % (tn, len(mods), tn, tn, tn, tn, tn, tn, ro, ro, ti,
               u + ".analysis_event" if traced else "None"))
    mods.append((_stepper_module(gen), tuple(gen.em.objs)))

    # -- the tick section --------------------------------------------------
    tick.append("                if %s:" % " or ".join(
        ["c%di" % ji, "c%di" % si, u + "jr", u + "so", u + "jo", u + "qr"]
        + ["%si or c%di or %s._min_wake <= cycle" % (tn, rc, tn)
           for tn, rc, _t in tiles]))
    em.pre.append("        %stl = (%s,)" % (u, ", ".join(
        "(%s, %si, %d)" % (tn, tn, t.max_inflight) for tn, _rc, t in tiles)))
    fields = {"u": u, "si": si, "ji": ji, "so": so, "jo": jo,
              "nt": len(unit.tiles),
              "caps": " or ".join("len(%si) < %d" % (tn, t.max_inflight)
                                  for tn, _rc, t in tiles),
              "take": ("%sqr.pop()" if unit.queue.policy == "lifo"
                       else "%sqr.popleft()") % u,
              "socap": unit.spawn_out.capacity,
              "jocap": unit.join_out.capacity}
    tick.append(_UNIT_DISPATCH % fields)
    for tn, _rc, t in tiles:
        tick.append("                    if %si:" % tn)
        # the instance loop's call line, which a profiled shell clocks
        text = tile_section(em, tn, t)
        at = text.find(tn + "k(") if clock is not None else -1
        if at < 0:
            tick.append(text)
            continue
        start, end = text.rfind("\n", 0, at), text.find("\n", at)
        end = len(text) if end < 0 else end
        ind = text[start + 1:at]
        tick.append(text[:start])
        tick.extend(clock("TaskUnit", ind))
        tick.append(text[start + 1:end])
        tick.extend(clock("TXUTile[%s]" % unit.task.name, ind))
        if end < len(text):
            tick.append(text[end + 1:])
    tick.append(_UNIT_TAIL % fields)

    # -- is_busy -----------------------------------------------------------
    busy.append(" or ".join(
        ["%sso" % u, "%sjo" % u, "%sjr" % u, "len(%sqf) < %sqd" % (u, u)]
        + ["%si" % tn for tn, _rc, _t in tiles]))

    # -- fast-forward contribution (mirrors TaskUnit.next_wake) ------------
    skip.append(_UNIT_SKIP % dict(fields, wake="\n".join(
        ["                    w = %s._min_wake" % tiles[0][0]]
        + [_SOONER % tn for tn, _rc, _t in tiles[1:]])))


# A unit's part of the shell at its depth: the preamble's aliases (the
# queue depth is read, not baked: a Stage-3 parameter), the input pops and
# the inlined TaskUnit._dispatch (round-robin over the static tile list for
# a tile with capacity: pop one READY entry and start it; the loop is not
# entered when every tile is full), the output pushes after the tiles, and
# the fast-forward lines
_UNIT_ALIASES = """\
        %(u)s = %(unit)s
        %(u)sq = %(u)s.queue
        %(u)sqf = %(u)sq._free
        %(u)sqd = %(u)sq.depth
        %(u)sqr = %(u)sq._ready
        %(u)sjr = %(u)s._join_ready
        %(u)sso = %(u)s._spawn_outbuf
        %(u)sjo = %(u)s._join_outbuf
        %(u)saj = %(u)s._apply_join
        %(u)sas = %(u)s._apply_spawn
        %(u)sqe = %(u)sq.entries
        %(u)ssj = %(u)s._send_join"""
_UNIT_DISPATCH = """\
                    if c%(ji)di and not CQ[%(ji)d]:
                        msg = c%(ji)di[0]
                        CQ[%(ji)d] = 1
                        dq.append(%(ji)d)
                        %(u)saj(msg, cycle)
                    if c%(si)di and not CQ[%(si)d] and %(u)sqf:
                        msg = c%(si)di[0]
                        CQ[%(si)d] = 1
                        dq.append(%(si)d)
                        %(u)sas(msg)
                    if %(u)sqr and (%(caps)s):
                        ix_ = %(u)s._dispatch_rr
                        for _ in range(%(nt)d):
                            tt_ = %(u)stl[ix_]
                            if len(tt_[1]) < tt_[2]:
                                dyid_ = %(take)s
                                en_ = %(u)sqe[dyid_]
                                if en_.state != "READY":
                                    raise SimulationError(
                                        "task queue %%s: ready-list entry %%d in state %%s" %% (%(u)sq.name, dyid_, en_.state))
                                en_.state = "EXE"
                                tt_[0].start(%(u)s._uid_counter, en_, cycle)
                                %(u)s._uid_counter += 1
                                %(u)s._dispatch_rr = ix_ + 1 if ix_ + 1 < %(nt)d else 0
                                break
                            ix_ = ix_ + 1 if ix_ + 1 < %(nt)d else 0"""
_UNIT_TAIL = """\
                    if %(u)sjr:
                        %(u)ssj()
                    if %(u)sso and len(c%(so)di) < %(socap)d and CP[%(so)d] is None:
                        CP[%(so)d] = %(u)sso.popleft()
                        dl.append(%(so)d)
                    if %(u)sjo and len(c%(jo)di) < %(jocap)d and CP[%(jo)d] is None:
                        CP[%(jo)d] = %(u)sjo.popleft()
                        dl.append(%(jo)d)"""
_UNIT_SKIP = """\
                if %(u)sjr or (c%(si)di and %(u)sqf) or (%(u)sqr and (%(caps)s)):
                    tw = cycle
                else:
%(wake)s
                    if w <= cycle:
                        tw = cycle
                    elif w < tw and w < P:
                        tw = w"""
_SOONER = """\
                    w2 = %s._min_wake
                    if w2 < w:
                        w = w2"""


#: what both module kinds bind from ctx before their defs; every other
#: object their text names is in the module's object table
_CTX_ERROR = '    SimulationError = ctx["SimulationError"]'


def _generate(sim) -> Tuple[str, List[Tuple[str, tuple]], dict]:
    """Walk the elaborated netlist and emit ``(shell, steppers, ctx)``:
    the shell source, one ``(source, objects)`` stepper module per task
    unit in registration order, and the shell's ctx. Deterministic for a
    given design: iteration is over registration-order lists only, names
    are assigned by traversal index, and nothing depends on id()/hash
    ordering. Every line is written once, at its depth in the module."""

    em = _Emitter(sim.channels)
    tick: List[str] = []   # per-cycle component sections (depth 16)
    busy: List[str] = []   # is_busy terms, registration order
    skip: List[str] = []   # fast-forward deadline contributions (depth 16)
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
        return ["%sh1 = _ns()\n%sht%d += h1 - h0\n%sh0 = h1"
                % (ind, ind, slot, ind)]

    comps = list(sim.components)
    for k, comp in enumerate(comps):
        guard = len(tick)  # every section opens with its ``if <guard>:``
        if isinstance(comp, TaskUnit):
            _emit_unit(em, k, comp, tick, busy, skip, sdefs, mods,
                       clock if profiled else None)
        else:
            # derived from the class's own tick / is_busy / next_wake
            em.pre.append("        x%d = %s" % (k, em.ref(comp)))
            head, body, held, wake = section(em, "x%d" % k, comp)
            tick.append(head)  # a comment naming that definition, the guard
            tick.append(body)
            busy.extend(held)
            if wake:
                skip.append(wake)
        if observed:
            tick.insert(guard + 1, "                    tk |= %d" % (1 << k))
            for ch in dict.fromkeys(comp.sensitivity()):
                subs[em.ci(ch)] |= 1 << k
        if profiled:
            tick.extend(clock(type(comp).__name__, " " * 16))

    # the loop after the sections, in order (the clock rows are numbered
    # by first use); the stall windows are read at generation time and
    # emitted as literals, so the kernel digest rolls over when they change
    stalled = "idle > %d or quiet > %d" % (_engine.DEADLOCK_WINDOW,
                                           _engine.STALL_WINDOW)
    move = _OBSERVED_MOVE if observed else ""
    loop = [_COMMIT % (move, move, _engine.MOVEMENT_LOG_CAP)]
    loop.extend(clock("channels.commit", " " * 20))
    if observed:
        loop.append(_OBSERVED_COMMIT)
        loop.extend(clock("observer", " " * 20))
    loop.append(_COMMITTED)
    loop.extend(clock("engine.schedule", " " * 20))
    loop.append("                    continue")
    if observed:
        loop.append(_OBSERVED_QUIET)
        loop.extend(clock("observer", " " * 16))
    loop.append(_ACCOUNT % (" or ".join("(%s)" % t for t in busy)
                            if busy else "0", stalled))
    loop.extend(clock("engine.schedule", " " * 20))
    loop.append("                    continue\n                tw = limit")
    loop.extend(skip)
    loop.append(_SKIP % (_engine.DEADLOCK_WINDOW + 1,
                         _engine.STALL_WINDOW + 1, stalled))
    loop.extend(clock("engine.schedule", " " * 16))

    nch = len(em.channels)
    out = ['"""Autogenerated netlist shell of a compiled-engine kernel '
           '(see repro.sim.compile)."""\ndef make_kernel(ctx):']
    if em.objs:
        out.append('    (%s,) = ctx["objects"]'
                   % ", ".join(map("_o%d".__mod__, range(len(em.objs)))))
    out.append(_KERNEL_HEAD % (
        "".join("_mk%d, " % j for j in range(len(mods))),
        " = ".join(em.temps)))  # hotter than any alias
    if profiled:
        out.append("        h0 = h1 = %s = 0\n"
                   "        from time import perf_counter_ns as _ns"
                   % " = ".join("ht%d" % slot for slot in range(len(rows))))
    out.append(_KERNEL_STATE % (nch, nch, nch))
    out.extend(em.pre)
    out.extend(sdefs)
    if observed:
        # the hand-over (Simulator._tick_event's call), as bit sets over
        # registration order: tk, whoever ticked or watches a channel that
        # moved, and cm, the channels whose occupancy the commit changed
        # (one both popped and pushed holds its occupancy: its bit flips twice)
        out.append("        tk = cm = 0\n        SUB = (%s)\n"
                   "        _oc = sim._on_change"
                   % "".join("%d, " % bits for bits in subs))
    out.append(_LOOP_HEAD)
    if profiled:
        out.append("                h0 = _ns()")
    out.extend(tick)
    out.extend(loop)
    out.append("        finally:")
    if profiled:
        out.append("            sim.host_profile.add(%r, (%s))" % (
            tuple(rows), "ht%d, " * len(rows) % tuple(range(len(rows)))))
    out.append(_KERNEL_EXIT % len(comps))
    ctx = {
        "objects": tuple(em.objs),
        "channels": tuple(em.channels),
        "SimulationError": SimulationError,
    }
    return "\n".join(out), mods, ctx


# The shell's hand-written text, at its depth: the steppers and channels
# from ctx, the locals the loop assigns, ...
_KERNEL_HEAD = """\
    (%%s) = ctx["steppers"]
    CH = ctx["channels"]
%s
    import gc as _gc
    def kernel(sim, done, start, max_cycles, mlog):
        %%s = None""" % _CTX_ERROR
# ... the flat channel state: item deques, pending push/pop, push counters,
# and the pushes and pops of this cycle; the pending channel state that
# exists already (the host pushes the root spawn before run()) is absorbed
# into it so the first commit sees it exactly like the dense engine's dirty
# list would; and the cold-path helper that folds the flat push counters
# back into the real channel objects (stall post-mortems and stats() read
# them there): what was popped since the last sync is what was pushed less
# what the queue grew by ...
_KERNEL_STATE = """\
        P = %d
        limit = start + max_cycles
        cycle = sim.cycle
        idle = sim._idle_cycles
        quiet = sim._quiet_cycles
        act = [1 if sim._activity_flag else 0]
        sim._activity_flag = False
        ticks = 0
        ff = 0
        dirty = sim._dirty_channels
        CI = tuple([c._items for c in CH])
        CN = tuple([c.name for c in CH])
        CP = [None] * %%d
        CQ = [0] * %%d
        CU = [0] * %%d
        dl = []
        dq = []
        i = 0
        for c in CH:
            c._dirty = False
            if c._pending_pop:
                CQ[i] = 1
                c._pending_pop = False
                dq.append(i)
            v = c._pending_push
            if v is not None:
                CP[i] = v
                c._pending_push = None
                dl.append(i)
            i += 1
        del dirty[:]
        CL = [len(d) for d in CI]
        def _sync_totals():
            i = 0
            for c in CH:
                n = len(CI[i])
                c.total_pushed += CU[i]
                c.total_popped += CU[i] + CL[i] - n
                CU[i] = 0
                CL[i] = n
                i += 1""" % PARKED
# ... the loop, one iteration per executed cycle (the hot loop allocates
# only acyclic objects -- messages, instances, small lists -- so pausing
# the cyclic collector avoids threshold-driven generation-0 sweeps every
# few hundred cycles) ...
_LOOP_HEAD = """\
        _gc_on = _gc.isenabled()
        if _gc_on:
            _gc.disable()
        try:
            while True:
                sim.cycle = cycle
                if done():
                    break
                if cycle >= limit:
                    raise SimulationError(
                        f"simulation exceeded {max_cycles} cycles without finishing")
                act[0] = 0"""
# ... after the component sections: the inline commit, which pops the
# channels in dq and pushes dl's ...
_COMMIT = """\
                ticks += 1
                if dl or dq:
                    for k in dq:
                        CI[k].popleft()
                        CQ[k] = 0%s
                    for k in dl:
                        CI[k].append(CP[k])
                        CU[k] += 1
                        CP[k] = None%s
                    if mlog is not None and len(mlog) < %d:
                        mlog.append((cycle, tuple(sorted(set(map(CN.__getitem__, dq + dl))))))"""
_OBSERVED_MOVE = """
                        tk |= SUB[k]
                        cm ^= 1 << k"""
_OBSERVED_COMMIT = """\
                    sim.cycle = cycle + 1
                    _oc(sim, cycle, tk, cm)
                    tk = cm = 0"""
_COMMITTED = """\
                    del dq[:]
                    del dl[:]
                    cycle += 1
                    quiet = 0
                    idle = 0"""
_OBSERVED_QUIET = """\
                sim.cycle = cycle + 1
                _oc(sim, cycle, tk, 0)
                tk = 0"""
# ... the idle/quiet accounting and stall check of a cycle that moved
# nothing ...
_ACCOUNT = """\
                cycle += 1
                if act[0]:
                    quiet = 0
                else:
                    quiet += 1
                if %s:
                    idle = 0
                    busy = 1
                else:
                    idle += 1
                    busy = 0
                if %s:
                    sim.cycle = cycle
                    sim._idle_cycles = idle
                    sim._quiet_cycles = quiet
                    _sync_totals()
                    sim._check_stalls()
                if act[0]:"""
# ... the quiescent fast-forward after the sections' deadlines ...
_SKIP = """\
                if not busy:
                    w = cycle + %d - idle
                    if w < tw:
                        tw = w
                w = cycle + %d - quiet
                if w < tw:
                    tw = w
                span = tw - cycle
                if span > 0:
                    cycle += span
                    quiet += span
                    if not busy:
                        idle += span
                    ff += span
                    if %s:
                        sim.cycle = cycle
                        sim._idle_cycles = idle
                        sim._quiet_cycles = quiet
                        _sync_totals()
                        sim._check_stalls()"""
# ... and the exit, which syncs the scalar counters back onto sim and, for
# error-state parity, leaves a mid-cycle exception's pending pushes/pops on
# the real channel objects, exactly as the dense engine would (uncommitted,
# marked dirty)
_KERNEL_EXIT = """\
            if _gc_on:
                _gc.enable()
            sim.cycle = cycle
            sim._idle_cycles = idle
            sim._quiet_cycles = quiet
            sim._ticks_executed += ticks
            sim._component_ticks += ticks * %d
            sim._fast_forwarded_cycles += ff
            _sync_totals()
            for k in dq:
                if CQ[k]:
                    CH[k]._pending_pop = True
                    CQ[k] = 0
            for k in dl:
                v = CP[k]
                if v is not None:
                    CH[k]._pending_push = v
                    CP[k] = None
            for k in dq + dl:
                c = CH[k]
                if not c._dirty:
                    c._dirty = True
                    dirty.append(c)
    return kernel
"""
