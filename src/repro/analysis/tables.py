"""Plain-text and markdown table rendering."""

from __future__ import annotations

from typing import Iterable


def format_table(
    headers: list,
    rows: Iterable,
    *,
    markdown: bool = False,
    float_format: str = ".2f",
) -> str:
    """Render rows of cells as an aligned text (or markdown) table."""
    rendered_rows = []
    for row in rows:
        rendered_rows.append(
            [
                format(cell, float_format) if isinstance(cell, float) else str(cell)
                for cell in row
            ]
        )
    widths = [len(str(h)) for h in headers]
    for row in rendered_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells, expected {len(headers)}"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells):
        if markdown:
            return "| " + " | ".join(c.ljust(w) for c, w in zip(cells, widths)) + " |"
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()

    out = [line([str(h) for h in headers])]
    if markdown:
        out.append("|" + "|".join("-" * (w + 2) for w in widths) + "|")
    else:
        out.append("  ".join("-" * w for w in widths))
    out.extend(line(row) for row in rendered_rows)
    return "\n".join(out)


def format_summary(summary: dict) -> str:
    """Render an experiment's headline numbers, one right-aligned key a line."""
    width = max((len(key) for key in summary), default=0)
    lines = []
    for key, value in summary.items():
        text = f"{value:.3f}" if isinstance(value, float) else str(value)
        lines.append(f"{key:>{width}}: {text}")
    return "\n".join(lines)


__all__ = ["format_summary", "format_table"]
