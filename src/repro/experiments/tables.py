"""Plain-text table rendering for experiment reports.

Every experiment renders its results as an aligned text table (the same
rows a paper table would carry), so REPORT.md and the CLI show identical
numbers.  A table whose cells are its data rows' values prints through
:func:`render_rows`, straight from the rows the run store keeps and the
checks judge; :func:`render_table` takes cells a data row does not hold.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence


def format_value(value) -> str:
    """Render one cell: booleans as yes/no, floats trimmed, rest as str."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 10_000 or abs(value) < 0.001:
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)


def render_table(headers: Sequence[str], rows: Sequence[Sequence]) -> list[str]:
    """Render rows as an aligned, pipe-separated text table."""
    cells = [[format_value(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        if len(row) != len(headers):
            raise ValueError("row arity does not match headers")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        " | ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "-+-".join("-" * w for w in widths),
    ]
    for row in cells:
        lines.append(" | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return lines


def render_rows(
    columns: Sequence[tuple[str, str]], rows: Sequence[Mapping]
) -> list[str]:
    """Render data rows as a table, one ``(header, key)`` pair per column.

    Each cell is its row's value at the column's key; keys no column
    names are not printed, and a missing key raises ``KeyError``.
    """
    return render_table(
        [header for header, _ in columns],
        [[row[key] for _, key in columns] for row in rows],
    )


def render_kv(pairs: Sequence[tuple[str, object]]) -> list[str]:
    """Render key/value pairs as aligned lines."""
    if not pairs:
        return []
    width = max(len(k) for k, _ in pairs)
    return [f"{k.ljust(width)} : {format_value(v)}" for k, v in pairs]
