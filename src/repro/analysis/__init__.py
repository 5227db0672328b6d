"""Analysis helpers: table formatting, plotting and report generation."""

from repro.analysis.plotting import ascii_series
from repro.analysis.report import generate_report
from repro.analysis.tables import format_table

__all__ = [
    "ascii_series",
    "format_table",
    "generate_report",
]
