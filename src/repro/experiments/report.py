"""Plain-text rendering of experiment results (figures as tables)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple


@dataclass
class FigureResult:
    """One reproduced paper figure: named series over a shared x axis."""

    figure: str
    title: str
    xlabel: str
    ylabel: str
    series: Dict[str, List[Tuple[float, float]]] = field(default_factory=dict)
    notes: str = ""

    def add_point(self, name: str, x: float, y: float) -> None:
        """Append one (x, y) point to a series."""
        self.series.setdefault(name, []).append((float(x), float(y)))


def _format_value(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1000 or abs(value) < 0.001:
        return f"{value:.3e}"
    return f"{value:.4g}"


def render_figure(result: FigureResult) -> str:
    """Render a figure as an aligned text table (x column + one per series)."""
    names = sorted(result.series)
    xs = sorted({x for points in result.series.values() for x, _ in points})
    lookup = {
        name: {x: y for x, y in points}
        for name, points in result.series.items()
    }
    header = [result.xlabel] + names
    rows = [header]
    for x in xs:
        row = [_format_value(x)]
        for name in names:
            y = lookup[name].get(x)
            row.append(_format_value(y) if y is not None else "-")
        rows.append(row)
    widths = [
        max(len(row[col]) for row in rows) for col in range(len(header))
    ]
    lines = [
        f"== {result.figure}: {result.title} ==",
        f"   (y = {result.ylabel})",
    ]
    if result.notes:
        lines.append(f"   {result.notes}")
    for i, row in enumerate(rows):
        lines.append(
            "  ".join(cell.rjust(width) for cell, width in zip(row, widths))
        )
        if i == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


#: Values at or below this are exact up to float rounding.
EXACT_EPS = 1e-12


def render_comparison(
    result: FigureResult, baseline: str, target: str
) -> str:
    """One-line summary of how ``target`` compares to ``baseline``.

    Reports the geometric-mean ratio baseline/target over shared x
    values (>1 means the target is more accurate / faster depending on
    the metric's polarity).  Points where both values are at or below
    ``EXACT_EPS`` are left out and counted: both methods are exact
    there, and a ratio of rounding errors would decide the mean.
    """
    import math

    base = dict(result.series.get(baseline, []))
    tgt = dict(result.series.get(target, []))
    shared = sorted(set(base) & set(tgt))
    exact = [x for x in shared if max(base[x], tgt[x]) <= EXACT_EPS]
    ratios = [
        base[x] / tgt[x]
        for x in shared
        if tgt[x] > 0 and base[x] > 0 and x not in exact
    ]
    left_out = f" ({len(exact)} left out as exact)" if exact else ""
    if not ratios:
        return f"{target} vs {baseline}: no comparable points{left_out}"
    geo = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
    return (
        f"{target} vs {baseline}: geometric-mean ratio "
        f"{geo:.2f}x over {len(ratios)} points{left_out}"
    )
