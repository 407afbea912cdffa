"""Dynamic cross-validation of the static value-range analysis.

The interval analysis in :mod:`repro.analysis.ranges` claims soundness:
every value a task unit ever computes lies inside its inferred interval.
This module checks that claim against real simulations by attaching a
probe to every TXU tile (``TXUTile.value_probe``) and comparing each
dynamically produced integer — dataflow results, register-cell writes,
loaded values, call returns, spawn arguments — against the static
interval.  A violation is an analysis bug, never a program bug, which is
exactly what makes it a good regression oracle: the engine-diff test
matrix runs every example program through the checker and asserts zero
violations.
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

        accel = build_accelerator(module, config)
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
        checker = cls(infer_design_ranges(accel.design, entry=entry))
        checker.attach(accel)
        return checker

    def attach(self, accel) -> "RangeChecker":
        for unit in accel.units:
            for tile in unit.tiles:
                tile.value_probe = self.probe
        return self

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
