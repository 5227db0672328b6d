"""Plain-text rendering of experiment headline numbers."""

from __future__ import annotations


def format_summary(summary: dict) -> str:
    """Render an experiment's headline numbers, one right-aligned key a line."""
    width = max((len(key) for key in summary), default=0)
    lines = []
    for key, value in summary.items():
        text = f"{value:.3f}" if isinstance(value, float) else str(value)
        lines.append(f"{key:>{width}}: {text}")
    return "\n".join(lines)


__all__ = ["format_summary"]
