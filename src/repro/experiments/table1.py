"""Table 1: the serverless functions and their memory footprints."""

from __future__ import annotations

from dataclasses import dataclass

from repro.faas.functions import TABLE1
from repro.parallel import SweepPoint


@dataclass(frozen=True)
class Config:
    """Table 1 is static: one shape."""

    @classmethod
    def quick(cls) -> "Config":
        return cls()


def points(config: Config) -> list:
    return [SweepPoint.make("table1")]


def run_point(point: SweepPoint) -> list:
    """Rows of (name, description, footprint MB)."""
    return [(s.name, s.description, s.footprint_mb) for s in TABLE1]


def summarize(rows: list) -> list:
    return rows[0]


def gates(result: list) -> list:
    return []


def format_rows(rows: list) -> str:
    lines = [f"{'Function':<12} {'Description':<42} {'Footprint (MB)':>14}"]
    for name, description, mb in rows:
        lines.append(f"{name:<12} {description:<42} {mb:>14}")
    return "\n".join(lines)
