"""Plain-text rendering of result tables for CLI and benchmark output.

The benchmark harness "prints the same rows/series the paper reports";
these helpers produce aligned ASCII tables (and pick the quantiles a
CDF is tabulated at) that read well in pytest output.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

#: A printable result table: ``(title, headers, rows)``. Every paper
#: artifact's result type returns these from its ``*table()`` methods;
#: the CLI, the benchmark harness and the docs all print the same one.
Table = Tuple[str, Sequence[str], Sequence[Sequence[object]]]


def render(table: Table) -> str:
    title, headers, rows = table
    return format_table(headers, rows, title=title)


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
) -> str:
    """Render an aligned ASCII table.

    Floats are shown with one decimal; everything else via ``str``.
    """
    rendered_rows: List[List[str]] = []
    for row in rows:
        rendered: List[str] = []
        for cell in row:
            if isinstance(cell, float):
                rendered.append(f"{cell:.1f}")
            else:
                rendered.append(str(cell))
        rendered_rows.append(rendered)

    widths = [len(h) for h in headers]
    for row in rendered_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row width {len(row)} does not match headers {len(headers)}"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells: Sequence[str]) -> str:
        return " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))

    parts: List[str] = []
    if title:
        parts.append(title)
    parts.append(line(list(headers)))
    parts.append("-+-".join("-" * w for w in widths))
    parts.extend(line(row) for row in rendered_rows)
    return "\n".join(parts)


#: The quantiles a CDF is summarised at.
CDF_FRACTIONS = (0.1, 0.25, 0.5, 0.75, 0.9, 0.99)


def cdf_quantiles(
    points: Sequence[Tuple[float, float]],
    fractions: Sequence[float] = CDF_FRACTIONS,
) -> List[float]:
    """The value at each fraction of a CDF point list from ``cdf_points``."""
    if not points:
        raise ValueError("empty CDF")
    values: List[float] = []
    for target in fractions:
        value = points[-1][0]
        for v, frac in points:
            if frac >= target:
                value = v
                break
        values.append(value)
    return values
