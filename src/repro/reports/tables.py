"""Plain-text table/figure rendering for benchmark output."""

from __future__ import annotations

from typing import Iterable, List, Sequence


def render_table(headers: Sequence[str], rows: Iterable[Sequence],
                 title: str = "") -> str:
    """Fixed-width table, right-aligned numerics."""
    rows = [[_fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(c.rjust(w) if _numeric(c) else c.ljust(w)
                               for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_series(title: str, x_label: str, xs: Sequence,
                  series: List[tuple]) -> str:
    """A figure as labelled data series (one row per x value)."""
    headers = [x_label] + [name for name, _ in series]
    rows = []
    for i, x in enumerate(xs):
        rows.append([x] + [values[i] for _, values in series])
    return render_table(headers, rows, title=title)


def _fmt(cell) -> str:
    if isinstance(cell, float):
        return f"{cell:.2f}"
    return str(cell)


def _numeric(cell: str) -> bool:
    try:
        float(cell.rstrip("x%"))
        return True
    except ValueError:
        return False
