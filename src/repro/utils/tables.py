"""ASCII table rendering for benchmark / experiment output.

The benchmark harness prints every reproduced figure as a plain-text table
(rows = x-axis values, columns = plotted series) so results are readable in
CI logs without a plotting stack.
"""

from __future__ import annotations

from typing import Iterable, Sequence

__all__ = ["format_table", "format_series"]


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    *,
    title: str | None = None,
) -> str:
    """Render *rows* under *headers* as a fixed-width ASCII table."""
    rows = [list(r) for r in rows]
    for i, row in enumerate(rows):
        if len(row) != len(headers):
            raise ValueError(
                f"row {i} has {len(row)} cells but there are {len(headers)} headers"
            )
    rendered: list[list[str]] = [
        [f"{v:.4g}" if isinstance(v, float) else str(v) for v in row] for row in rows
    ]
    widths = [
        max(len(headers[c]), *(len(r[c]) for r in rendered)) if rendered else len(headers[c])
        for c in range(len(headers))
    ]
    lines: list[str] = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.rjust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in rendered:
        lines.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_series(
    x_name: str,
    x_values: Sequence[object],
    series: dict[str, Sequence[float]],
    *,
    title: str | None = None,
) -> str:
    """Render a figure-like structure: one x column plus one column per series."""
    headers = [x_name, *series.keys()]
    for name, values in series.items():
        if len(values) != len(x_values):
            raise ValueError(
                f"series {name!r} has {len(values)} points but x has {len(x_values)}"
            )
    rows = [
        [x, *(series[name][i] for name in series)] for i, x in enumerate(x_values)
    ]
    return format_table(headers, rows, title=title)
