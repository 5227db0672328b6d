"""Terminal plotting: ASCII line series for the figures.

The experiments print tables by default; this helper renders per-function
line series over a swept parameter the way Fig. 9 looks, without any
plotting dependency.
"""

from __future__ import annotations


def ascii_series(
    xs: "list[float]",
    series: "dict[str, list[float]]",
    *,
    width: int = 56,
    height: int = 12,
    x_label: str = "",
    y_label: str = "",
) -> str:
    """Several y-series over shared x values, plotted as characters."""
    if not xs or not series:
        return "(no data)"
    all_ys = [y for ys in series.values() for y in ys]
    lo, hi = min(all_ys), max(all_ys)
    if hi == lo:
        hi = lo + 1.0
    grid = [[" "] * width for _ in range(height)]
    markers = "ox+*#@%&"
    x_lo, x_hi = min(xs), max(xs)
    span = (x_hi - x_lo) or 1.0
    for index, (name, ys) in enumerate(series.items()):
        mark = markers[index % len(markers)]
        for x, y in zip(xs, ys):
            col = int(round((x - x_lo) / span * (width - 1)))
            row = int(round((hi - y) / (hi - lo) * (height - 1)))
            grid[row][col] = mark
    lines = [f"{hi:8.2f} ┤" + "".join(grid[0])]
    for row in grid[1:-1]:
        lines.append(" " * 8 + " │" + "".join(row))
    lines.append(f"{lo:8.2f} ┤" + "".join(grid[-1]))
    lines.append(" " * 10 + "└" + "─" * width)
    lines.append(
        " " * 10 + f"{x_lo:<10.3g}{x_label:^{max(width - 20, 0)}}{x_hi:>10.3g}"
    )
    legend = "   ".join(
        f"{markers[i % len(markers)]} {name}" for i, name in enumerate(series)
    )
    lines.append(" " * 10 + legend)
    if y_label:
        lines.insert(0, f"{y_label}")
    return "\n".join(lines)


__all__ = ["ascii_series"]
