"""Plain-text reporting helpers for the experiment harness.

The paper reports its results as figures and tables; the benchmark harness
prints the corresponding series as aligned text tables so the trends (who wins,
where the minimum falls, how large the improvement is) can be read directly
from the benchmark output (README "Benchmarks → paper figures" maps each
benchmark file to its figure).
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]], title: str | None = None
) -> str:
    """Format rows as a fixed-width text table."""
    rendered_rows = [[_render(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in rendered_rows:
        if len(row) != len(headers):
            raise ValueError("every row must have one cell per header")
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    header_line = " | ".join(
        header.ljust(widths[index]) for index, header in enumerate(headers)
    )
    lines.append(header_line)
    lines.append("-+-".join("-" * width for width in widths))
    for row in rendered_rows:
        lines.append(
            " | ".join(cell.ljust(widths[index]) for index, cell in enumerate(row))
        )
    return "\n".join(lines)


def format_series(series: Mapping[object, object], title: str | None = None) -> str:
    """Format a key -> value mapping as a two-column table."""
    return format_table(
        ["key", "value"], [(key, value) for key, value in series.items()], title=title
    )


def _render(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.3f}"
    return str(cell)
