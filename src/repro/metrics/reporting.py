"""Plain-text rendering for experiment outputs (tables and units)."""

from __future__ import annotations

from typing import Sequence


def ascii_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render an aligned monospace table (used by every figure harness)."""
    if not headers:
        raise ValueError("need at least one column")
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    for row in cells:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but there are {len(headers)} headers"
            )

    def fmt(row: list[str]) -> str:
        return " | ".join(cell.ljust(width) for cell, width in zip(row, widths))

    separator = "-+-".join("-" * width for width in widths)
    lines = [fmt(cells[0]), separator] + [fmt(row) for row in cells[1:]]
    return "\n".join(lines)


def format_bytes(n: float) -> str:
    """Human-readable byte count (binary-free, paper uses GB = 1e9)."""
    for unit, scale in (("GB", 1e9), ("MB", 1e6), ("KB", 1e3)):
        if abs(n) >= scale:
            return f"{n / scale:.1f} {unit}"
    return f"{n:.0f} B"
