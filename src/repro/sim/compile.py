"""Compiled engine: per-design specialized flat kernels.

The default engine (``Simulator(engine="compiled")``) flattens an
elaborated netlist into generated Python specialized for that exact
design -- a netlist shell plus one stepper module per task unit, shared
by every design point of the program: every task unit / TXU tile is
inlined down to straight-line per-dataflow-node code (operand reads,
two's-complement wrap masks, handshake checks and latency literals baked
in as constants), while the plumbing components (arbiters, demuxes,
cache, DRAM, scratchpad, data boxes) are inlined too — each section
derived from the class's own ``tick()`` source by :mod:`repro.sim.derive`,
channel handshakes turned into flat-array ops — and run behind *no-op
guards*: start-of-cycle state checks that are false only when the tick
could not change any architectural state.

The contract is the same bit-identity the dense and event engines share:
cycle counts, architectural stats, channel traffic and error behaviour
are identical, enforced by the ``repro diff`` matrix and the hypothesis
engine-parity property tests. All speed comes from removing Python
interpretation overhead (attribute lookups, dict dispatch, dead guard
re-evaluation), never from changing semantics: the kernel operates on
the *real* simulator objects (channels, task queues, instances,
messages), so any state it leaves behind is exactly the state the dense
engine would have produced.

One thing the kernel does not mirror is the dense tile's polling: a TXU
instance whose stepper call ended blocked-only is *parked* on the
resource that refused it (``Instance.park``: the tile's memory port or
the unit's spawn out-buffer) and its stepper is not called again until
that resource has room or a response reset its ``wake_at`` -- the
skipped calls could only have re-found the resource taken and set the
tile's stall marker, which the instance loop sets for them.
``stats()["engine"]`` reports the calls made and skipped
(``instance_steps`` / ``parked_skips``).

Caching: each generated module is content-addressed. The digest folds
its source (a pure function of what it describes: the netlist, or one
task's program) together with :func:`repro.exp.cache.code_fingerprint`
— the same discipline as ``ResultCache`` — so editing anything under
``src/repro`` rolls every module over and a stale one can never be
replayed. Modules are kept in an in-process cache and mirrored,
write-only, to ``<cache-dir>/kernels/<digest>.py`` for inspection.

Instrumentation is generated, not interpreted: with a change-driven
observer attached every guard block reports its component and the kernel
hands ``on_change`` what ticked or moved after each commit; a traced task
unit's steppers call ``analysis_event`` at the four sites they inline.
Both fold into the source (hence the digest), and an uninstrumented
design's source contains neither. What the codegen does not cover (host
profiling, value probes, observers without ``on_change``, unrecognized
component classes or ones written outside the derivable subset, exotic IR)
runs on the dense oracle — total and
bit-identical, just slower — with the reason recorded in
``Simulator.compiled_fallback``.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.errors import SimulationError
from repro.ir.instructions import (
    GEP,
    Alloca,
    BinaryOp,
    Br,
    Call,
    Cast,
    CondBr,
    Detach,
    FCmp,
    ICmp,
    Load,
    Reattach,
    Ret,
    Select,
    Store,
    Sync,
)
from repro.ir.types import FloatType, IntType, PointerType
from repro.ir.values import Constant, GlobalVariable
from repro.memory import (Cache, DataBox, Demux, DRAMModel,
                          RoundRobinArbiter, Scratchpad)
from repro.sim import engine as _engine
from repro.sim.derive import UnsupportedDesign, section
from repro.task.task_unit import OUTBOUND_BUFFER, TaskUnit
from repro.task.txu import TXUTile

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

_ICMP_PY = {"eq": "==", "ne": "!=", "slt": "<", "sle": "<=",
            "sgt": ">", "sge": ">="}
_FCMP_PY = {"oeq": "==", "one": "!=", "olt": "<", "ole": "<=",
            "ogt": ">", "oge": ">="}
_INT_OPS = {"add": "+", "sub": "-", "mul": "*", "and": "&", "or": "|",
            "xor": "^"}
_FLT_OPS = {"fadd": "+", "fsub": "-", "fmul": "*"}


def kernel_cache_dir() -> Path:
    """On-disk home of generated kernel sources (content-addressed)."""
    from repro.exp.cache import default_cache_dir

    return default_cache_dir() / "kernels"


def kernel_digest(source: str) -> str:
    """Content address of a generated kernel: the specialized source
    (a pure function of the elaborated design) plus the ``src/repro``
    code fingerprint, so editing the simulator invalidates every cached
    kernel — the ``ResultCache`` hashing discipline."""
    from repro.exp.cache import code_fingerprint

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
        fd, tmp = tempfile.mkstemp(dir=str(root), suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(source)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path
    except OSError:
        return None


def _fallback_reason(sim) -> Optional[str]:
    """Instrumentation / topology checks that force the dense engine:
    what needs a real tick of every component every cycle (host-time
    attribution, value probes, an observer with only ``on_cycle``) or is
    structurally unknown to the codegen."""
    if (sim.observer is not None
            and getattr(sim.observer, "on_change", None) is None):
        return (f"observer {type(sim.observer).__name__} has no on_change "
                f"(per-cycle sampling needs real ticks)")
    if sim.host_profile is not None:
        return "host profiling enabled (per-component attribution)"
    if TXUTile.value_probe is not None:
        return "TXU value probe installed (range checker)"
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
#             <aliases, one _mk<j>(...) call per tile>
#             try:
#                 while True:           # one iteration per executed cycle
#                     <guarded component ticks, registration order>
#                     <inline commit over sim._dirty_channels>
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
#         def mk(T, Tf, Tfc, Tsu, cRi, R, TI, CP, dl, U, Uso, ev, act):
#             <epilogue-store closure _e, one stepper _s<b> per owned block>
#             return _e, {block: stepper}
#         return mk
#
# Everything design-shaped is baked in as literals, everything
# per-simulation (channel/component/IR objects) arrives through ctx or as
# an argument of ``mk``, so equal text means equal behaviour and each
# cached module serves every sim that generates its text. A stepper
# module's text is a function of the task program (node indices,
# dependency chains, wrap masks, frame layout, global addresses), SID/port,
# node latencies, request-channel capacity and the trace flag -- not of
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
#: (a dozen per tile) outnumber that, so the kernel names these first
_TEMPORARIES = ("inst st gap wk_ msg dyid_ en_ ix_ _ tt_ rs_ resp rm_ mw nw_ "
                "fin wa pk ph _w k v nm busy tw w w2 span").split()
_PARKED = 1 << 60  # txu PARKED == the missing-dep sentinel (1 << 60)
_CAST_INT = ("trunc", "sext", "zext")


class _Emitter:
    """Collects one module's ctx objects and source lines with
    deterministic naming.

    Channels are addressed by their index in ``sim.channels``
    (registration order): the kernel keeps pending-push / pending-pop /
    moved-counter state in flat preallocated lists (``CP``/``CQ``/``CU``/
    ``CO``) indexed by that integer, and ``c<K>i`` aliases channel K's
    item deque (``_items`` is assigned once in the constructor). A push
    is ``CP[K] = msg`` plus appending K to the moved-list ``dl``; a pop
    is ``CQ[K] = 1`` plus the same append — the end-of-cycle commit
    walks ``dl`` only. A stepper module's emitter has none: whatever is
    channel-shaped reaches its text as a factory argument."""

    def __init__(self, channels=()):
        self.objs: List[object] = []
        self._obj_names: Dict[int, str] = {}
        self.pre: List[str] = []    # kernel preamble (aliases, bound methods)
        self.temps = dict.fromkeys(_TEMPORARIES)  # named ahead of it, in order
        self.channels = list(channels)
        self._chan_idx = {id(ch): k for k, ch in enumerate(self.channels)}
        self._chan_alias: set = set()

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

    def ci(self, ch) -> int:
        """Flat index of ``ch`` (emits its item-deque alias on first use)."""
        k = self._chan_idx.get(id(ch))
        if k is None:
            raise UnsupportedDesign(
                f"channel {ch.name} not registered with the simulator")
        if k not in self._chan_alias:
            self._chan_alias.add(k)
            self.pre.append("c%di = CI[%d]" % (k, k))
        return k


def _fmt_const(value) -> Optional[str]:
    """Literal source for a constant, or None when it cannot be spelled
    (non-finite floats go through ctx instead)."""
    if isinstance(value, bool):
        return None  # be conservative: route bools through ctx
    if isinstance(value, int):
        return "(%r)" % (value,)
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            return None
        return "(%r)" % (value,)
    return None


class _StepperGen:
    """Emits one specialized stepper function per owned block of a task
    unit: the straight-line unrolling of ``TXUTile._step_instance`` +
    ``_maybe_transition`` for that block's dataflow graph. The steppers
    live inside the unit's ``mk`` factory (see :func:`_stepper_module`),
    so everything tile- or kernel-bound is written as a factory parameter
    — ``T`` (the tile), ``Tf``/``Tfc``/``Tsu`` (its ``_fired`` set,
    ``_fire_call``, ``_suspend``), ``cRi``/``R`` (request channel deque
    and flat index), ``TI`` (tile index), ``CP``/``dl``/``act`` (the
    kernel's pending pushes, moved-list and one-cell activity flag),
    ``U``/``Uso``/``ev`` (the unit, its spawn out-buffer and its
    ``analysis_event``, called only when ``traced``) and ``_e`` (the
    epilogue-store closure) — while SID, port and capacities are baked in
    so ``_fire_memory`` and ``_finish`` are inlined flat ops."""

    def __init__(self, em: _Emitter, unit, traced: bool):
        self.em = em          # the stepper module's own object table
        self.unit = unit
        self.traced = traced
        # _emit_unit has checked that every tile agrees on these three
        self.compiled = unit.tiles[0].compiled
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
        the operand is statically an int literal."""
        if isinstance(v, Constant) and isinstance(v.value, int) \
                and not isinstance(v.value, bool):
            return "(%r)" % (v.value,)
        if isinstance(v, GlobalVariable):
            if v.address is None:
                raise UnsupportedDesign(
                    f"global @{v.name} has no address at codegen time")
            return "(%r)" % (int(v.address),)
        return "int(%s)" % self.rv(v)

    def rvf(self, v) -> str:
        if isinstance(v, Constant) and isinstance(v.value, (int, float)) \
                and not isinstance(v.value, bool):
            lit = _fmt_const(float(v.value))
            if lit is not None:
                return lit
        return "float(%s)" % self.rv(v)

    # -- helpers -----------------------------------------------------------

    def _lat(self, kind: str) -> int:
        return self.latencies.get(kind, 1)

    def _wrap(self, target: str, type_, ind: str) -> List[str]:
        """Two's-complement wrap of local ``r`` into ``target``
        (mirrors IntType.wrap)."""
        if not isinstance(type_, IntType):
            raise UnsupportedDesign(
                f"integer wrap on non-integer type {type_}")
        bits = type_.bits
        if bits == 1:
            return [ind + "%s = r & 1" % target]
        return [ind + "r &= %d" % ((1 << bits) - 1),
                ind + "if r >= %d:" % (1 << (bits - 1)),
                ind + "    r -= %d" % (1 << bits),
                ind + "%s = r" % target]

    def _f32(self, expr: str) -> str:
        """Round-trip through single precision (opsem's float results)."""
        return '_up("<f", _pk("<f", %s))[0]' % expr

    # -- node firing (mirrors TXUTile._fire) -------------------------------

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
                    offset = self.compiled.frame_offsets[ir]
                    L.append(ind + "%s = %d + inst.entry.dyid * %d + %d"
                             % (tgt, self.unit.frame_base,
                                self.unit.frame_size, offset))
            else:
                L.append(ind + "%s = _RegSlot(%s)" % (tgt, self.em.ref(ir)))
        elif isinstance(ir, BinaryOp):
            L.extend(self._binop_lines(ir, tgt, ind))
        elif isinstance(ir, ICmp):
            op = _ICMP_PY.get(ir.predicate)
            if op is None:
                raise UnsupportedDesign(f"icmp predicate {ir.predicate}")
            L.append(ind + "%s = 1 if %s %s %s else 0"
                     % (tgt, self.rvi(ir.lhs), op, self.rvi(ir.rhs)))
        elif isinstance(ir, FCmp):
            op = _FCMP_PY.get(ir.predicate)
            if op is None:
                raise UnsupportedDesign(f"fcmp predicate {ir.predicate}")
            L.append(ind + "%s = 1 if %s %s %s else 0"
                     % (tgt, self.rvf(ir.operands[0]), op,
                        self.rvf(ir.operands[1])))
        elif isinstance(ir, Select):
            cond, if_true, if_false = ir.operands
            L.append(ind + "%s = (%s) if (%s) else (%s)"
                     % (tgt, self.rv(if_true), self.rv(cond),
                        self.rv(if_false)))
        elif isinstance(ir, Cast):
            L.extend(self._cast_lines(ir, tgt, ind))
        elif isinstance(ir, GEP):
            L.extend(self._gep_lines(ir, tgt, ind))
        else:
            raise UnsupportedDesign(
                f"TXU codegen cannot execute {type(ir).__name__}")

        # chained assignment keeps the hoisted per-node local in sync so a
        # 0-latency dependent sees the fresh deadline within the same call
        L.append(ind + "nd[%d] = dn%d = cycle + %d"
                 % (node.index, node.index, self._lat(kind)))
        return L

    def _binop_lines(self, ir, tgt: str, ind: str) -> List[str]:
        op = ir.op
        if isinstance(ir.type, IntType):
            bits = ir.type.bits
            L = [ind + "ia = %s" % self.rvi(ir.lhs),
                 ind + "ib = %s" % self.rvi(ir.rhs)]
            if op in _INT_OPS:
                L.append(ind + "r = ia %s ib" % _INT_OPS[op])
            elif op in ("sdiv", "srem"):
                what = "division" if op == "sdiv" else "remainder"
                L.append(ind + "if ib == 0:")
                L.append(ind + "    raise SimulationError(%r)"
                         % ("integer %s by zero" % what,))
                q = "abs(ia) // abs(ib) * (1 if (ia >= 0) == (ib >= 0) else -1)"
                if op == "sdiv":
                    L.append(ind + "r = " + q)
                else:
                    L.append(ind + "r = ia - (%s) * ib" % q)
            elif op == "shl":
                L.append(ind + "r = ia << (ib & %d)" % (bits - 1))
            elif op == "ashr":
                L.append(ind + "r = ia >> (ib & %d)" % (bits - 1))
            elif op == "lshr":
                L.append(ind + "r = (ia & %d) >> (ib & %d)"
                         % ((1 << bits) - 1, bits - 1))
            elif op == "smin":
                L.append(ind + "r = ia if ia < ib else ib")
            elif op == "smax":
                L.append(ind + "r = ia if ia > ib else ib")
            else:
                raise UnsupportedDesign(f"integer binop {op}")
            L.extend(self._wrap(tgt, ir.type, ind))
            return L
        L = [ind + "fa = %s" % self.rvf(ir.lhs),
             ind + "fb = %s" % self.rvf(ir.rhs)]
        if op in _FLT_OPS:
            L.append(ind + "r = fa %s fb" % _FLT_OPS[op])
        elif op == "fdiv":
            L.append(ind + "if fb == 0.0:")
            L.append(ind + "    r = _INF if fa > 0 else "
                           "_NINF if fa < 0 else _NAN")
            L.append(ind + "else:")
            L.append(ind + "    r = fa / fb")
        elif op == "fmin":
            L.append(ind + "r = fa if fa < fb else fb")
        elif op == "fmax":
            L.append(ind + "r = fa if fa > fb else fb")
        else:
            raise UnsupportedDesign(f"float binop {op}")
        L.append(ind + "%s = %s" % (tgt, self._f32("r")))
        return L

    def _cast_lines(self, ir, tgt: str, ind: str) -> List[str]:
        kind = ir.kind
        v = ir.operands[0]
        if kind in _CAST_INT:
            L = [ind + "r = %s" % self.rvi(v)]
            if kind == "zext" and isinstance(v.type, IntType):
                L.append(ind + "r &= %d" % ((1 << v.type.bits) - 1))
            L.extend(self._wrap(tgt, ir.type, ind))
            return L
        if kind == "sitofp":
            return [ind + "%s = float(%s)" % (tgt, self.rvi(v))]
        if kind == "fptosi":
            L = [ind + "r = int(%s)" % self.rvf(v)]
            L.extend(self._wrap(tgt, ir.type, ind))
            return L
        if kind == "bitcast":
            return [ind + "%s = %s" % (tgt, self.rv(v))]
        raise UnsupportedDesign(f"cast kind {kind}")

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
             ind + "if type(ba) is _RegSlot:",
             ind + "    raise SimulationError(%r)"
             % ("address arithmetic on a register slot — scalar allocas "
                "may only be loaded/stored directly",)]
        expr = " + ".join(["int(ba)"] + terms)
        L.append(ind + "%s = %s" % (tgt, expr))
        return L

    # -- inlined _fire_memory / _finish ------------------------------------

    def mem_fire_lines(self, node, key: str, ind: str) -> List[str]:
        """The ``elif``-chain tail of a load/store node attempt (mirrors
        ``TXUTile._fire_memory``): already-issued and backpressure checks,
        then the flat push of the request."""
        ir = node.inst
        L = [ind + "elif T._mem_issued_this_cycle:",
             ind + "    b = 1",
             ind + "elif len(cRi) < %d and CP[R] is None:" % self.rocap]
        ptr = ir.pointer
        if isinstance(ptr, (Constant, GlobalVariable)):
            addr = self.rvi(ptr)
        else:
            L.append(ind + "    a_ = %s" % self.rv(ptr))
            L.append(ind + "    if type(a_) is _RegSlot:")
            L.append(ind + "        raise SimulationError(%r)"
                     % ("register access classified as memory op",))
            addr = "int(a_)"
        tag = "MemTag(%d, TI, inst.uid, %d)" % (self.unit.sid, node.index)
        if isinstance(ir, Load):
            req = ('MemRequest(tag=%s, op="load", addr=%s, size=%d, port=%d)'
                   % (tag, addr, ir.type.size_bytes, self.unit.port))
        else:
            req = ('MemRequest(tag=%s, op="store", addr=%s, size=%d, '
                   'data=_v2r(%s, %s), port=%d)'
                   % (tag, addr, ir.value.type.size_bytes,
                      self.em.ref(ir.value.type), self.rv(ir.value),
                      self.unit.port))
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
        L.append(ind + "    pm.add(%d)" % node.index)
        L.append(ind + "    fired.add(%s)" % key)
        L.append(ind + "    f = 1")
        L.append(ind + "else:")
        L.append(ind + "    T._mem_blocked = True")
        L.append(ind + "    b = 1")
        return L

    def finish_lines(self, retval_expr: str, ind: str) -> List[str]:
        """Inlined ``TXUTile._finish``: record the return value and either
        enter the epilogue store (shared-cache return) or complete."""
        if retval_expr == "None":
            return [ind + "inst.retval = None",
                    ind + 'inst.phase = "done"']
        return [ind + "rv_ = %s" % retval_expr,
                ind + "inst.retval = rv_",
                ind + "if inst.entry.ret_ptr is not None "
                      "and rv_ is not None:",
                ind + '    inst.phase = "epilogue_issue"',
                ind + "    _e(inst, cycle)",
                ind + "else:",
                ind + '    inst.phase = "done"']

    # -- block entry (mirrors TXUTile._enter_block) ------------------------

    def enter_lines(self, target, ind: str) -> List[str]:
        if not self.compiled.owns_block(target):
            return [ind + "raise SimulationError(%r)"
                    % (f"task {self.compiled.name}: control left the task "
                       f"region into {target.name}",)]
        return [ind + "inst.block = %s" % self.em.ref(target),
                ind + "inst.node_done = [B] * %d"
                % len(self.compiled.dfg(target).nodes),
                ind + "inst.pending_mem = set()",
                ind + "inst.pending_call = set()",
                ind + "inst.block_entry_cycle = cycle + 1"]

    # -- the whole stepper -------------------------------------------------

    def stepper(self, name: str, block) -> List[str]:
        em = self.em
        dfg = self.compiled.dfg(block)
        nodes = dfg.nodes
        body = nodes[:-1]
        term_node = nodes[-1]
        has_mem = any(n.kind in ("load", "store") for n in body)
        has_call = any(n.kind == "call" for n in body)

        L = ["def %s(inst, cycle):" % name,
             "    nd = inst.node_done",
             "    env = inst.env",
             "    fired = Tf"]
        if has_mem:
            L.append("    pm = inst.pending_mem")
        if has_call:
            L.append("    pc = inst.pending_call")
        L.extend(["    f = 0", "    d = 0", "    b = 0",
                  "    m = 0", "    blk = 0"])
        # hoist every body node's done-cycle into a local with one unpack
        # of the block's node_done list (its last slot is the terminator's,
        # never written); a node that has not fired holds the sentinel B
        L.append("    (%s_) = nd" % "".join("dn%d, " % n.index for n in body))

        def deps(node) -> str:
            return " and ".join("dn%d <= cycle" % dep
                                for dep in node.deps)

        for node in body:
            idx = node.index
            key = em.ref((block, idx))
            cond = "dn%d == B" % idx
            if node.kind in ("load", "store"):
                cond += " and %d not in pm" % idx
            elif node.kind == "call":
                cond += " and %d not in pc" % idx
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
                L.append("            b = blk = 1")  # call-blocked: no park
            else:
                L.append("        else:")
                L.extend(self.fire_lines(node, "            "))
                L.append("            fired.add(%s)" % key)
                L.append("            f = 1")

        # -- transition (mirrors _maybe_transition) ------------------------
        trans = ["dn%d <= cycle" % n.index for n in body]
        if has_mem:
            trans.append("not pm")
        else:
            trans.append("not inst.pending_mem")
        if has_call:
            trans.append("not pc")
        else:
            trans.append("not inst.pending_call")
        tdeps = deps(term_node)
        if tdeps:
            trans.append(tdeps)
        L.append("    if %s:" % " and ".join(trans))
        term = term_node.inst
        if isinstance(term, Detach):
            # inlined _fire_spawn + TaskUnit.issue_spawn: the spawn spec
            # (dest SID, marshalled args, ret pointer) is static, so the
            # SpawnMessage fields are baked in as literals/env reads.
            spec = self.compiled.spawn_specs[term]
            args = ", ".join(self.rv(v) for v in spec.arg_values)
            if args:
                args += ","
            ret_ptr = ("int(%s)" % self.rv(spec.ret_ptr_value)
                       if spec.ret_ptr_value is not None else "None")
            L.append("        if len(Uso) >= %d:" % OUTBOUND_BUFFER)
            L.append("            T._spawn_blocked = True")
            L.append("            blk = 1")
            L.append("        else:")
            L.append("            en_ = inst.entry")
            seq = "None"
            if self.traced:
                L.append('            ev_ = ev("spawn-issue", "-> T%d", '
                         '{"gid": en_.gid, "dest_sid": %d})'
                         % (spec.dest_sid, spec.dest_sid))
                seq = "ev_.seq if ev_ is not None else None"
            L.append("            Uso.append(SpawnMessage(dest_sid=%d, "
                     "args=(%s), parent_sid=%d, parent_dyid=en_.dyid, "
                     'join_kind="sync", ret_ptr=%s, parent_gid=en_.gid, '
                     "spawn_seq=%s))"
                     % (spec.dest_sid, args, self.unit.sid, ret_ptr, seq))
            L.append("            en_.child_count += 1")
            L.append("            U.spawns_issued += 1")
            L.append("            inst.spawned += 1")
            L.extend(self.enter_lines(term.continuation, "            "))
            L.append("            m = 1")
        elif isinstance(term, Sync):
            L.append("        if inst.entry.child_count > 0:")
            L.append("            Tsu(inst, %s)"
                     % em.ref(term.continuation))
            L.append("        else:")
            if self.traced:
                L.append('            ev("sync-pass", f"gid={inst.entry.gid}", '
                         '{"gid": inst.entry.gid})')
            L.extend(self.enter_lines(term.continuation, "            "))
            L.append("        m = 1")
        elif isinstance(term, Br):
            L.extend(self.enter_lines(term.dest, "        "))
            L.append("        m = 1")
        elif isinstance(term, CondBr):
            L.append("        if %s:" % self.rv(term.cond))
            L.extend(self.enter_lines(term.if_true, "            "))
            L.append("        else:")
            L.extend(self.enter_lines(term.if_false, "            "))
            L.append("        m = 1")
        elif isinstance(term, Reattach):
            L.extend(self.finish_lines("None", "        "))
            L.append("        m = 1")
        elif isinstance(term, Ret):
            retval = (self.rv(term.value)
                      if term.value is not None else "None")
            L.extend(self.finish_lines(retval, "        "))
            L.append("        m = 1")
        else:
            raise UnsupportedDesign(
                f"terminator {type(term).__name__} not supported")

        # -- wake bookkeeping (mirrors _step_instance's epilogue) ----------
        L.extend([
            "    if f or m:",
            "        act[0] = 1",
            '    if m or f or d or b or blk or inst.phase != "run":',
            "        inst.wake_at = cycle + 1",
            '        if inst.phase != "run":',
            "            return P",
            "        if m or f or d:",
            "            return cycle + 1",
        ])
        # blocked-only (b or blk, nothing fired, moved or deferred): until
        # a response resets wake_at, the next call can differ only once the
        # blocking resource frees up, so park on it -- the instance loop
        # skips the call while it stays taken. Memory-blocked nodes wait on
        # the tile's port, unless a multi-cycle node is still maturing (a
        # timer wait); a spawn-blocked terminator waits on the out-buffer;
        # a call-blocked node (b and blk) keeps polling.
        kw = "if"
        if has_mem:
            slow = " or ".join("cycle < dn%d < B" % n.index for n in body
                               if n.kind not in ("load", "store", "call")
                               and self._lat(n.kind) >= 2)
            L.append("        if not blk%s:"
                     % (" and not (%s)" % slow if slow else ""))
            L.append("            inst.park = 1")
            kw = "elif"
        if isinstance(term, Detach):
            L.append("        %s not b:" % kw)
            L.append("            inst.park = 2")
        L.extend([
            "        return P",
            "    w = P",
            "    for x in nd:",
            "        if x > cycle and x < w:",
            "            w = x",
            "    if w is P and not inst.pending_mem and not inst.pending_call:",
            "        w = cycle + 1",
            "    inst.wake_at = w",
            "    return w",
        ])
        return L


def _stepper_module(gen: _StepperGen) -> str:
    """Source of one task unit's stepper module. A task unit is ONE TXU
    design replicated Ntiles times and instantiated by every design point
    of its program: the epilogue closure and the per-block steppers are
    generated and compiled once, with everything tile- or kernel-bound
    arriving as ``mk``'s arguments and objects numbered within the unit."""
    unit, compiled, ref = gen.unit, gen.compiled, gen.em.ref
    rettype = compiled.task.function.return_type
    body: List[str] = []
    w = body.append
    w("def _e(inst, cycle):")
    if rettype.is_void():
        # unreachable: a void task never has (ret_ptr, retval) set
        w("    raise SimulationError(%r)" % ("epilogue store for void task",))
    else:
        # a blocked epilogue store is the memory-port wait: park on it
        w("    inst.park = 1")
        w("    if T._mem_issued_this_cycle:")
        w("        return")
        w("    if len(cRi) < %d and CP[R] is None:" % gen.rocap)
        if gen.traced:
            w('        ev("mem", "store addr=%%d (ret)" %% '
              'int(inst.entry.ret_ptr), {"gid": inst.entry.gid, '
              '"op": "store", "addr": int(inst.entry.ret_ptr), "size": %d, '
              '"sid": %d, "node": -1, "inst": None})'
              % (rettype.size_bytes, unit.sid))
        w('        CP[R] = MemRequest(tag=MemTag(%d, TI, '
          'inst.uid, -1), op="store", '
          "addr=int(inst.entry.ret_ptr), size=%d, "
          "data=_v2r(%s, inst.retval), port=%d)"
          % (unit.sid, rettype.size_bytes, ref(rettype), unit.port))
        w("        dl.append(R)")
        w("        T._mem_issued_this_cycle = True")
        w('        inst.phase = "epilogue_wait"')
        w("        inst.park = 0")
        w("    else:")
        w("        T._mem_blocked = True")
    entries = []
    for bi, block in enumerate(compiled.blocks):
        if compiled.owns_block(block):
            body.extend(gen.stepper("_s%d" % bi, block))
            entries.append("%s: _s%d" % (ref(block), bi))
    w("return _e, {%s}" % ", ".join(entries))
    lines = ['"""Autogenerated TXU steppers of one task unit (see '
             'repro.sim.compile)."""',
             "def make_steppers(ctx, objs):",
             "    (%s) = objs" % "".join(
                 "_o%d, " % i for i in range(len(gen.em.objs)))]
    lines.extend(_CTX_NAMES)
    lines.append("    P = B = %d" % _PARKED)
    lines.append('    _INF, _NINF, _NAN = float("inf"), float("-inf"), '
                 'float("nan")')
    lines.append("    def mk(T, Tf, Tfc, Tsu, cRi, R, TI, CP, dl, U, Uso, ev, "
                 "act):")
    lines.extend("        " + line for line in body)
    lines.append("    return mk")
    return "\n".join(lines) + "\n"


def _emit_unit(em: _Emitter, k: int, unit, tick, busy, skip, sdefs, mods):
    """Fully inlined TaskUnit tick: queue/join plumbing via guarded real
    helper calls, tile instance stepping via the per-block steppers of
    the unit's stepper module (appended to ``mods``)."""
    compiled = unit.tiles[0].compiled if unit.tiles else None
    if compiled is None:
        raise UnsupportedDesign(f"{unit.name}: task unit has no tiles")
    for t in unit.tiles:
        if t.compiled is not compiled:
            raise UnsupportedDesign(
                f"{unit.name}: tiles disagree on compiled task")
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
    em.pre.append("%sfi = %s.instance_finished" % (u, u))
    traced = unit.trace is not None and unit.trace.enabled
    si, ji = em.ci(unit.spawn_in), em.ci(unit.join_in)
    so, jo = em.ci(unit.spawn_out), em.ci(unit.join_out)

    tiles = []
    for ti, t in enumerate(unit.tiles):
        tn = "%s_t%d" % (u, ti)
        em.pre.append("%s = %s" % (tn, em.ref(t)))
        em.pre.append("%si = %s.instances" % (tn, tn))
        em.pre.append("%sf = %s._fired" % (tn, tn))
        em.pre.append("%spr = %s._apply_response" % (tn, tn))
        tiles.append((tn, em.ci(t.response_in), t))

    # parks do not outlive a kernel call (dense ticks in between ignore
    # them): the first tick runs every instance loop, which re-parks
    em.pre.append("for t_ in %s.tiles:" % u)
    em.pre.append("    for inst in t_.instances:")
    em.pre.append("        inst.park = 0")

    # -- the unit's stepper factory, instantiated once per tile ------------
    gen = _StepperGen(_Emitter(), unit, traced)
    for ti, (tn, _rc, t) in enumerate(tiles):
        ro = em.ci(t.request_out)
        sdefs.append(
            "_e%d_%d, %sd = _mk%d(%s, %sf, %s._fire_call, %s._suspend, c%di, "
            "%d, %d, CP, dl, %s, %sso, %s, act)"
            % (k, ti, tn, len(mods), tn, tn, tn, tn, ro, ro, ti, u, u,
               u + ".analysis_event" if traced else "None"))
    mods.append((_stepper_module(gen), tuple(gen.em.objs)))

    # -- the tick section --------------------------------------------------
    guard = ["c%di" % ji, "c%di" % si, u + "jr", u + "so", u + "jo",
             u + "qr"]
    for tn, rc, _t in tiles:
        guard.extend([tn + "i", "c%di" % rc, "%s._min_wake <= cycle" % tn])
    tick.append("if %s:" % " or ".join(guard))
    tick.append("    st = %s._synced_to" % u)
    tick.append("    if st < cycle - 1:")
    tick.append("        gap = cycle - 1 - st")
    for tn, _rc, _t in tiles:
        tick.append("        if %si:" % tn)
        tick.append("            %s.busy_cycles += gap" % tn)
    tick.append("    %s._synced_to = cycle" % u)
    tick.append("    wk_ = 0")
    tick.append("    if c%di and not CQ[%d]:" % (ji, ji))
    tick.append("        msg = c%di[0]" % ji)
    tick.append("        CQ[%d] = 1" % ji)
    tick.append("        dl.append(%d)" % ji)
    tick.append("        %saj(msg, cycle)" % u)
    tick.append("        wk_ = 1")
    tick.append("    if c%di and not CQ[%d] and %sqf:" % (si, si, u))
    tick.append("        msg = c%di[0]" % si)
    tick.append("        CQ[%d] = 1" % si)
    tick.append("        dl.append(%d)" % si)
    tick.append("        %sas(msg, cycle)" % u)
    # inlined TaskUnit._dispatch: round-robin over the (static) tile
    # list for a tile with capacity, pop one READY entry, start it
    take = ("%sqr.pop()" if unit.queue.policy == "lifo"
            else "%sqr.popleft()") % u
    nt = len(unit.tiles)
    tick.append("    if %sqr:" % u)
    if nt == 1:
        tn0, _rc0, t0 = tiles[0]
        tick.append("        if len(%si) < %d:" % (tn0, t0.max_inflight))
        tick.append("            dyid_ = %s" % take)
        tick.append("            en_ = %sqe[dyid_]" % u)
        tick.append('            if en_.state != "READY":')
        tick.append("                raise SimulationError(")
        tick.append('                    "task queue %%s: ready-list entry '
                    '%%d in state %%s" %% (%sq.name, dyid_, en_.state))' % u)
        tick.append('            en_.state = "EXE"')
        tick.append("            %s.start(%s._uid_counter, en_, cycle)"
                    % (tn0, u))
        tick.append("            %s._uid_counter += 1" % u)
        tick.append("            wk_ = 1")
        tick.append("            if %s.first_dispatch_cycle is None:" % u)
        tick.append("                %s.first_dispatch_cycle = cycle" % u)
    else:
        em.pre.append("%stl = (%s)" % (u, ", ".join(
            "(%s, %si, %d)" % (tn, tn, t.max_inflight)
            for tn, _rc, t in tiles)))
        tick.append("        ix_ = %s._dispatch_rr" % u)
        tick.append("        for _ in range(%d):" % nt)
        tick.append("            tt_ = %stl[ix_]" % u)
        tick.append("            if len(tt_[1]) < tt_[2]:")
        tick.append("                if not %sqr:" % u)
        tick.append("                    break")
        tick.append("                dyid_ = %s" % take)
        tick.append("                en_ = %sqe[dyid_]" % u)
        tick.append('                if en_.state != "READY":')
        tick.append("                    raise SimulationError(")
        tick.append('                        "task queue %%s: ready-list '
                    'entry %%d in state %%s" %% (%sq.name, dyid_, en_.state))'
                    % u)
        tick.append('                en_.state = "EXE"')
        tick.append("                tt_[0].start(%s._uid_counter, en_, "
                    "cycle)" % u)
        tick.append("                %s._uid_counter += 1" % u)
        tick.append("                wk_ = 1")
        tick.append("                %s._dispatch_rr = ix_ + 1 if ix_ + 1 "
                    "< %d else 0" % (u, nt))
        tick.append("                if %s.first_dispatch_cycle is None:"
                    % u)
        tick.append("                    %s.first_dispatch_cycle = cycle"
                    % u)
        tick.append("                break")
        tick.append("            ix_ = ix_ + 1 if ix_ + 1 < %d else 0" % nt)
    full = "len(%sso) >= %d" % (u, OUTBOUND_BUFFER)
    for ti, (tn, rc, t) in enumerate(tiles):
        # the instance loop is a pure no-op (each instance would hit its
        # cycle < wake_at early-out, or re-find its port / out-buffer
        # taken) unless a wake event happened: a memory response or join
        # arrived, a dispatch started/resumed an instance, a node-latency
        # deadline (<tile>n) is due, or a resource someone is parked on has
        # room again. <tile>p ORs the park reasons of the tile's instances
        # (1 memory port, 2 spawn out-buffer), <tile>c counts them; both
        # are recomputed on every loop run.
        ro = em.ci(t.request_out)
        room = "len(c%di) < %d and CP[%d] is None" % (ro, gen.rocap, ro)
        em.pre.append("%sn = %sp = %sc = 0" % (tn, tn, tn))
        tick.append("    if %sf:" % tn)
        tick.append("        %sf.clear()" % tn)
        tick.append("    %s._mem_issued_this_cycle = False" % tn)
        tick.append("    %s._mem_blocked = False" % tn)
        tick.append("    %s._spawn_blocked = False" % tn)
        tick.append("    rs_ = wk_")
        tick.append("    if c%di and not CQ[%d]:" % (rc, rc))
        tick.append("        resp = c%di[0]" % rc)
        tick.append("        CQ[%d] = 1" % rc)
        tick.append("        dl.append(%d)" % rc)
        tick.append("        %spr(resp, cycle)" % tn)
        tick.append("        rs_ = 1")
        tick.append("    if %si:" % tn)
        tick.append("        %s.busy_cycles += 1" % tn)
        tick.append("        if rs_ or cycle >= %sn or %sp and (%sp & 1 and %s"
                    % (tn, tn, tn, room))
        tick.append("                or %sp & 2 and len(%sso) < %d):"
                    % (tn, u, OUTBOUND_BUFFER))
        tick.append("            rm_ = %s" % room)
        tick.append("            %sp = %sc = 0" % (tn, tn))
        tick.append("            mw = P")
        tick.append("            nw_ = P")
        tick.append("            fin = None")
        tick.append("            for inst in %si[:]:" % tn)
        # (a non-"run" phase never has wake_at ahead of the clock)
        tick.append("                wa = inst.wake_at")
        tick.append("                if cycle < wa:")
        tick.append("                    if wa < mw:")
        tick.append("                        mw = wa")
        tick.append("                    if wa < nw_:")
        tick.append("                        nw_ = wa")
        tick.append("                    continue")
        # parked, no response has reset wake_at, resource still taken:
        # the call would change nothing but the tile's stall marker
        tick.append("                pk = inst.park")
        tick.append("                if pk:")
        tick.append("                    if wa and (%s if pk == 2 else not rm_"
                    % full)
        tick.append("                            or %s._mem_issued_this_cycle):"
                    % tn)
        tick.append("                        %sp |= pk" % tn)
        tick.append("                        %sc += 1" % tn)
        tick.append("                        nsk += 1")
        tick.append("                        continue")
        tick.append("                    inst.park = 0")
        tick.append("                ph = inst.phase")
        tick.append("                _w = P")
        tick.append('                if ph == "run":')
        tick.append("                    nst += 1")
        tick.append("                    _w = %sd[inst.block](inst, cycle)"
                    % tn)
        tick.append('                elif ph == "epilogue_issue":')
        tick.append("                    _e%d_%d(inst, cycle)" % (k, ti))
        tick.append("                ph = inst.phase")
        tick.append('                if ph == "done":')
        tick.append("                    if fin is None:")
        tick.append("                        fin = [inst]")
        tick.append("                    else:")
        tick.append("                        fin.append(inst)")
        tick.append("                else:")
        tick.append("                    pk = inst.park")
        tick.append("                    if pk:")
        tick.append("                        %sp |= pk" % tn)
        tick.append("                        %sc += 1" % tn)
        tick.append('                    elif ph == "run":')
        tick.append("                        wa = inst.wake_at")
        tick.append("                        if wa < nw_:")
        tick.append("                            nw_ = wa")
        tick.append("                    if _w < mw:")
        tick.append("                        mw = _w")
        tick.append("            %sn = nw_" % tn)
        tick.append("            %s._min_wake = mw" % tn)
        tick.append("            if fin is not None:")
        tick.append("                for inst in fin:")
        tick.append("                    %si.remove(inst)" % tn)
        tick.append("                    del %s._by_uid[inst.uid]" % tn)
        tick.append("                    %s.completed_instances += 1" % tn)
        tick.append("                    %sfi(inst)" % u)
        tick.append("        else:")
        tick.append("            rm_ = 0")  # or the loop would have run
        tick.append("            nsk += %sc" % tn)
        # the markers _fire_memory / _fire_spawn set on whoever stays parked
        tick.append("        if %sp:" % tn)
        tick.append("            if %sp & 1 and not rm_:" % tn)
        tick.append("                %s._mem_blocked = True" % tn)
        tick.append("            if %sp & 2:" % tn)
        tick.append("                %s._spawn_blocked = True" % tn)
        tick.append("    else:")
        tick.append("        %s._min_wake = P" % tn)
    tick.append("    if %sjr:" % u)
    tick.append("        %ssj(cycle)" % u)
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
    caps = " or ".join("len(%si) < %d" % (tn, t.max_inflight)
                       for tn, _rc, t in tiles)
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


#: what both module kinds bind from ctx before their defs
_CTX_NAMES = ['    %s = ctx["%s"]' % pair for pair in (
    ("SimulationError", "SimulationError"), ("_RegSlot", "RegSlot"),
    ("_pk", "pack"), ("_up", "unpack"), ("MemRequest", "MemRequest"),
    ("MemTag", "MemTag"), ("_v2r", "v2r"), ("SpawnMessage", "SpawnMessage"))]


def _generate(sim) -> Tuple[str, List[Tuple[str, tuple]], dict]:
    """Walk the elaborated netlist and emit ``(shell, steppers, ctx)``:
    the shell source, one ``(source, objects)`` stepper module per task
    unit in registration order, and the shell's ctx. Deterministic for a
    given design: iteration is over registration-order lists only, names
    are assigned by traversal index, and nothing depends on id()/hash
    ordering."""
    import struct as _struct

    from repro.ir.opsem import RegSlot as _RegSlotCls
    from repro.ir.opsem import value_to_raw as _value_to_raw
    from repro.memory.databox import MemTag as _MemTagCls
    from repro.memory.messages import MemRequest as _MemRequestCls
    from repro.task.messages import SpawnMessage as _SpawnMessageCls

    em = _Emitter(sim.channels)
    tick: List[str] = []   # per-cycle component sections (base indent 0)
    busy: List[str] = []   # is_busy terms, registration order
    skip: List[str] = []   # fast-forward deadline contributions
    sdefs: List[str] = []  # per-tile stepper instantiations
    mods: List[Tuple[str, tuple]] = []  # stepper modules, unit order

    # a change-driven observer is attached: every guard block reports its
    # component, and SUB[k] lists who watches channel k (sensitivity())
    observed = getattr(sim.observer, "on_change", None) is not None
    subs: List[List[str]] = [[] for _ in em.channels]
    comps = list(sim.components)
    for k, comp in enumerate(comps):
        guard = len(tick)  # every section opens with its ``if <guard>:``
        if isinstance(comp, TaskUnit):
            _emit_unit(em, k, comp, tick, busy, skip, sdefs, mods)
        else:
            # derived from the class's own tick / is_busy / next_wake
            em.pre.append("x%d = %s" % (k, em.ref(comp)))
            lines, held, wake = section(em, "x%d" % k, comp)
            tick.extend(lines)
            busy.extend(held)
            skip.extend(wake)
            guard += 1  # ... after a comment naming that definition
        if observed:
            tick.insert(guard + 1, "    tk.append(%s)" % em.ref(comp))
            for ch in dict.fromkeys(comp.sensitivity()):
                subs[em.ci(ch)].append(em.ref(comp))

    busy_expr = " or ".join("(%s)" % t for t in busy) if busy else "0"
    nch = len(em.channels)
    # the stall windows are read at generation time and emitted as
    # literals, so the kernel digest rolls over when they change
    stalled = "idle > %d or quiet > %d" % (_engine.DEADLOCK_WINDOW,
                                           _engine.STALL_WINDOW)

    body: List[str] = []
    w = body.append
    w("%s = None" % " = ".join(em.temps))  # hotter than any alias
    w("P = %d" % _PARKED)
    w("limit = start + max_cycles")
    w("cycle = sim.cycle")
    w("idle = sim._idle_cycles")
    w("quiet = sim._quiet_cycles")
    w("act = [1 if sim._activity_flag else 0]")  # a cell the steppers set
    w("sim._activity_flag = False")
    w("ticks = 0")
    w("ff = 0")
    w("nst = 0")  # stepper calls made / skipped on a parked instance
    w("nsk = 0")
    w("dirty = sim._dirty_channels")
    # flat channel state: item deques, pending push/pop, moved counters
    w("CI = tuple([c._items for c in CH])")
    w("CN = tuple([c.name for c in CH])")
    w("CP = [None] * %d" % nch)
    w("CQ = [0] * %d" % nch)
    w("CU = [0] * %d" % nch)
    w("CO = [0] * %d" % nch)
    w("dl = []")
    # absorb pre-existing pending channel state (the host pushes the
    # root spawn before run()) into the flat arrays so the first commit
    # sees it exactly like the dense engine's dirty list would
    w("i = 0")
    w("for c in CH:")
    w("    c._dirty = False")
    w("    if c._pending_pop:")
    w("        CQ[i] = 1")
    w("        c._pending_pop = False")
    w("        dl.append(i)")
    w("    v = c._pending_push")
    w("    if v is not None:")
    w("        CP[i] = v")
    w("        c._pending_push = None")
    w("        dl.append(i)")
    w("    i += 1")
    w("del dirty[:]")
    # cold-path helper: fold the flat moved-counters back into the real
    # channel objects (stall post-mortems and stats() read them there)
    w("def _sync_totals():")
    w("    i = 0")
    w("    for c in CH:")
    w("        c.total_pushed += CU[i]")
    w("        CU[i] = 0")
    w("        c.total_popped += CO[i]")
    w("        CO[i] = 0")
    w("        i += 1")
    body.extend(em.pre)
    body.extend(sdefs)
    if observed:
        # Simulator._tick_event's hand-over, after the commit: whoever
        # ticked or watches a channel that moved, and those channels
        w("tk = []")
        w("SUB = (%s)" % "".join(
            "(%s), " % "".join(n + ", " for n in names) for names in subs))
        w("_oc = sim._on_change")
        w("def _obs(cycle):")
        w("    sim.cycle = cycle + 1")
        w("    ks = dict.fromkeys(dl)")
        w("    for k in ks:")
        w("        tk.extend(SUB[k])")
        w("    _oc(sim, cycle, dict.fromkeys(tk), [CH[k] for k in ks])")
        w("    del tk[:]")
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
    body.extend("        " + line for line in tick)
    w("        ticks += 1")
    w("        if dl:")
    w("            if mlog is None:")
    w("                for k in dl:")
    w("                    if CQ[k]:")
    w("                        CI[k].popleft()")
    w("                        CO[k] += 1")
    w("                        CQ[k] = 0")
    w("                    v = CP[k]")
    w("                    if v is not None:")
    w("                        CI[k].append(v)")
    w("                        CU[k] += 1")
    w("                        CP[k] = None")
    w("            else:")
    w("                nm = set()")
    w("                for k in dl:")
    w("                    if CQ[k]:")
    w("                        CI[k].popleft()")
    w("                        CO[k] += 1")
    w("                        CQ[k] = 0")
    w("                    v = CP[k]")
    w("                    if v is not None:")
    w("                        CI[k].append(v)")
    w("                        CU[k] += 1")
    w("                        CP[k] = None")
    w("                    nm.add(CN[k])")
    w("                if len(mlog) < %d:" % _engine.MOVEMENT_LOG_CAP)
    w("                    mlog.append((cycle, tuple(sorted(nm))))")
    if observed:
        w("            _obs(cycle)")
    w("            del dl[:]")
    w("            cycle += 1")
    w("            quiet = 0")
    w("            idle = 0")
    w("            continue")
    if observed:
        w("        _obs(cycle)")
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
    w("finally:")
    w("    if _gc_on:")
    w("        _gc.enable()")
    w("    sim.cycle = cycle")
    w("    sim._idle_cycles = idle")
    w("    sim._quiet_cycles = quiet")
    w("    sim._ticks_executed += ticks")
    w("    sim._component_ticks += ticks * %d" % len(comps))
    w("    sim._fast_forwarded_cycles += ff")
    w("    sim._instance_steps += nst")
    w("    sim._parked_skips += nsk")
    w("    _sync_totals()")
    # error-state parity: a mid-cycle exception leaves this cycle's
    # pending pushes/pops on the real channel objects, exactly as the
    # dense engine would (uncommitted, marked dirty)
    w("    for k in dl:")
    w("        c = CH[k]")
    w("        if CQ[k]:")
    w("            c._pending_pop = True")
    w("            CQ[k] = 0")
    w("        v = CP[k]")
    w("        if v is not None:")
    w("            c._pending_push = v")
    w("            CP[k] = None")
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
    lines.extend(_CTX_NAMES)
    lines.append("    import gc as _gc")
    lines.append("    def kernel(sim, done, start, max_cycles, mlog):")
    lines.extend("        " + line for line in body)
    lines.append("    return kernel")
    source = "\n".join(lines) + "\n"
    ctx = {
        "objects": tuple(em.objs),
        "channels": tuple(em.channels),
        "SimulationError": SimulationError,
        "RegSlot": _RegSlotCls,
        "pack": _struct.pack,
        "unpack": _struct.unpack,
        "MemRequest": _MemRequestCls,
        "MemTag": _MemTagCls,
        "v2r": _value_to_raw,
        "SpawnMessage": _SpawnMessageCls,
    }
    return source, mods, ctx
