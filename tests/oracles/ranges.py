"""Dynamic cross-validation of the static value-range analysis.

The interval analysis in :mod:`repro.analysis.ranges` claims soundness:
every value a task unit ever computes lies inside its inferred interval.
This oracle checks that claim against dense-engine simulations: it wraps
the four :class:`~repro.task.txu.TXUTile` methods where a value is
produced and compares each integer — dataflow results, register-cell
writes, loaded values, call returns, spawn arguments — against the
static interval.  A violation is an analysis bug, never a program bug,
which is exactly what makes it a good regression oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.analysis.ranges import Interval, ModuleRanges, infer_design_ranges
from repro.ir.instructions import Alloca
from repro.ir.types import IntType


@dataclass(frozen=True)
class RangeViolation:
    """One dynamically observed value outside its static interval."""

    value: object          # the IR Value (or Alloca, for cell writes)
    observed: int
    interval: Interval
    is_cell: bool

    def describe(self) -> str:
        kind = "cell" if self.is_cell else "value"
        name = getattr(self.value, "name", None) or repr(self.value)
        return (f"{kind} {name}: observed {self.observed} outside "
                f"[{self.interval.lo}, {self.interval.hi}]")


class RangeChecker:
    """Attachable probe comparing execution against a ModuleRanges.

    Usage::

        accel = build_accelerator(module, AcceleratorConfig(engine="dense"))
        checker = RangeChecker.for_accelerator(accel, entry="fib")
        ... accel.run(...) ...
        checker.assert_clean()
    """

    def __init__(self, ranges: ModuleRanges):
        self.ranges = ranges
        self.violations: List[RangeViolation] = []
        self.checked = 0

    @classmethod
    def for_accelerator(cls, accel, entry: Optional[str] = None
                        ) -> "RangeChecker":
        """Infer ranges for the accelerator's design and attach to every
        tile of every task unit."""
        return cls(infer_design_ranges(accel.design, entry=entry)).attach(accel)

    def attach(self, accel) -> "RangeChecker":
        """Wrap every tile of a dense-engine accelerator. The compiled
        kernel inlines what these methods do, so any other engine is
        refused instead of quietly checking nothing."""
        if accel.sim.engine != "dense":
            raise ValueError(f"RangeChecker observes the dense engine only, "
                             f"not {accel.sim.engine!r}")
        for unit in accel.units:
            for tile in unit.tiles:
                self._wrap(tile)
        return self

    def _wrap(self, tile):
        """Probe what each method left in ``inst.env``/``inst.regs``."""
        probe, task, by_uid = self.probe, tile.task, tile._by_uid
        start, respond = tile.start, tile._apply_response
        deliver, fire = tile.deliver_call_return, tile._fire

        def produced(inst, ir):
            if ir in inst.env:  # a store or a void call leaves none
                probe(ir, inst.env[ir])

        def ir_at(inst, node_idx):
            return task.dfgs[inst.block].nodes[node_idx].inst

        def start_(uid, entry, cycle):
            fresh = entry.resume_block is None
            inst = start(uid, entry, cycle)
            for value, _ in zip(task.args, entry.args) if fresh else ():
                produced(inst, value)
            return inst

        def respond_(resp, cycle):
            respond(resp, cycle)
            if resp.tag.node >= 0:  # not the return-value store
                inst = by_uid[resp.tag.instance]
                produced(inst, ir_at(inst, resp.tag.node))

        def deliver_(uid, node_idx, retval, cycle, **kwargs):
            deliver(uid, node_idx, retval, cycle, **kwargs)
            produced(by_uid[uid], ir_at(by_uid[uid], node_idx))

        def fire_(inst, node, cycle):
            report = fire(inst, node, cycle)
            if node.kind == "regwrite":
                probe(node.inst.pointer, inst.regs[node.inst.pointer])
            elif node.kind not in ("nop", "load", "store", "call"):
                produced(inst, node.inst)
            return report

        tile.start, tile._apply_response = start_, respond_
        tile.deliver_call_return, tile._fire = deliver_, fire_

    def probe(self, value, observed):
        # non-integers (floats, register-slot markers, None writebacks)
        # carry no interval claim
        if isinstance(observed, bool) or not isinstance(observed, int):
            return
        if isinstance(value, Alloca):
            interval = self.ranges.cell_ranges.get(value)
            is_cell = True
        else:
            if not isinstance(value.type, IntType):
                return
            interval = self.ranges.range_of(value)
            is_cell = False
        if interval is None:
            return
        self.checked += 1
        if not interval.contains(observed):
            self.violations.append(
                RangeViolation(value, observed, interval, is_cell))

    def assert_clean(self):
        if self.violations:
            lines = [v.describe() for v in self.violations[:20]]
            raise AssertionError(
                f"{len(self.violations)} dynamic value(s) escaped their "
                f"static interval (of {self.checked} checked):\n  "
                + "\n  ".join(lines))
        if self.checked == 0:
            raise AssertionError(
                "range checker observed no integer values — probe not "
                "attached or nothing executed")
