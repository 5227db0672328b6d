"""Analysis helpers: table formatting, plotting and report generation."""

from repro.analysis.plotting import ascii_series
from repro.analysis.report import generate_report

__all__ = [
    "ascii_series",
    "generate_report",
]
