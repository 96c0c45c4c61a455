"""Report rendering: ASCII tables and cell formats for experiment output.

Every experiment driver ends in one of these renderers so benches print the
paper's rows in a stable, diffable format.
"""

from __future__ import annotations

from typing import Sequence

from ..errors import ConfigurationError

__all__ = ["render_table", "format_ratio", "format_kw"]


def format_ratio(value: float | None) -> str:
    """Ratio cell: two decimals, dash for missing."""
    return "-" if value is None else f"{value:.2f}"


def format_kw(value_kw: float) -> str:
    """Power cell: thousands-separated integer kW."""
    return f"{value_kw:,.0f}"


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
) -> str:
    """Monospace table with column auto-sizing.

    Cells are stringified with ``str``; callers pre-format numbers so units
    stay explicit at the call site.
    """
    if not headers:
        raise ConfigurationError("table needs at least one column")
    str_rows = [[str(c) for c in row] for row in rows]
    for row in str_rows:
        if len(row) != len(headers):
            raise ConfigurationError(
                f"row has {len(row)} cells for {len(headers)} columns"
            )
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "| " + " | ".join(c.ljust(w) for c, w in zip(cells, widths)) + " |"

    sep = "+-" + "-+-".join("-" * w for w in widths) + "-+"
    out: list[str] = []
    if title:
        out.append(title)
    out.append(sep)
    out.append(line(list(headers)))
    out.append(sep)
    for row in str_rows:
        out.append(line(row))
    out.append(sep)
    return "\n".join(out)
