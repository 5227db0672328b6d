"""Figure 7: remote fork performance under cold-start execution (a) and
normalized local memory consumption (b).

For every Table-1 function and every mechanism (Cold, LocalFork, CRIU-CXL,
Mitosis-CXL, CXLfork) we measure the end-to-end cold-start execution —
broken into Restore / Page Faults / Execution — and the local memory the
child consumes, on a fresh two-node pod per run (so page caches are cold on
the target node, as they would be on a remote machine).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.tables import format_summary
from repro.experiments.common import (
    geometric_mean,
    make_pod,
    measure_cold_start,
    prepare_parent,
)
from repro.faas.functions import function_names
from repro.parallel import SweepPoint
from repro.sim.units import MS

#: Mechanisms shown in Fig. 7, in plot order.
FIG7_MECHANISMS = ("cold", "localfork", "criu-cxl", "mitosis-cxl", "cxlfork")


@dataclass
class Fig7Row:
    """One bar of Fig. 7a/b."""

    function: str
    mechanism: str
    restore_ms: float
    fault_ms: float
    exec_ms: float
    total_ms: float
    local_mb: float


@dataclass(frozen=True)
class Config:
    """The Fig. 7 grid: functions (None = all of Table 1) × mechanisms."""

    functions: Optional[tuple] = None
    mechanisms: tuple = FIG7_MECHANISMS

    @classmethod
    def quick(cls) -> "Config":
        """Two functions spanning tiny and mid-size working sets."""
        return cls(functions=("float", "json"))


def points(config: Config) -> list:
    """The Fig. 7 grid (functions × mechanisms) as self-contained points."""
    names = config.functions or function_names()
    return [
        SweepPoint.make("fig7", function=fn, mechanism=mech)
        for fn in names
        for mech in config.mechanisms
    ]


def run_point(point: SweepPoint) -> Fig7Row:
    """One (function, mechanism) cell on a fresh two-node pod.

    Top-level and picklable: :func:`repro.parallel.run_points` ships it to
    shared-nothing worker processes when ``jobs > 1``.
    """
    pod = make_pod()
    parent = prepare_parent(pod, point.param("function"))
    m = measure_cold_start(pod, parent, point.param("mechanism"))
    return Fig7Row(
        function=m.function,
        mechanism=m.mechanism,
        restore_ms=m.restore_ns / MS,
        fault_ms=m.fault_ns / MS,
        exec_ms=m.exec_ns / MS,
        total_ms=m.total_ns / MS,
        local_mb=m.local_mb,
    )


def summarize(rows: list) -> list:
    return rows


def gates(rows: list) -> list:
    return []


def headline(rows: list) -> dict:
    """The headline ratios the paper reports in §7.1."""
    by_fn: dict[str, dict[str, Fig7Row]] = {}
    for row in rows:
        by_fn.setdefault(row.function, {})[row.mechanism] = row

    def ratio(numer: str, denom: str, field: str = "total_ms") -> float:
        values = []
        for fn_rows in by_fn.values():
            if numer in fn_rows and denom in fn_rows:
                num = getattr(fn_rows[numer], field)
                den = getattr(fn_rows[denom], field)
                if den > 0:
                    values.append(num / den)
        return geometric_mean(values)

    summary = {
        # §7.1 headline claims:
        "cold_vs_cxlfork": ratio("cold", "cxlfork"),            # paper: ~11x
        "cxlfork_vs_localfork": ratio("cxlfork", "localfork"),  # paper: ~1.14x
        "criu_vs_cxlfork": ratio("criu-cxl", "cxlfork"),        # paper: ~2.26x
        "mitosis_vs_cxlfork": ratio("mitosis-cxl", "cxlfork"),  # paper: ~1.40x
        "criu_vs_localfork": ratio("criu-cxl", "localfork"),    # paper: ~2.6x
        "mitosis_vs_localfork": ratio("mitosis-cxl", "localfork"),  # paper: ~1.5x
        # Fig. 7b (memory, normalized to Cold):
        "mem_cxlfork_vs_cold": ratio("cxlfork", "cold", "local_mb"),    # ~0.13
        "mem_criu_vs_cold": ratio("criu-cxl", "cold", "local_mb"),      # ~1.0
        "mem_mitosis_vs_criu": ratio("mitosis-cxl", "criu-cxl", "local_mb"),  # ~0.4
        "mem_cxlfork_vs_criu": ratio("cxlfork", "criu-cxl", "local_mb"),      # ~0.13
        "mem_cxlfork_vs_mitosis": ratio("cxlfork", "mitosis-cxl", "local_mb"),  # ~0.39
    }
    cxlfork_restores = [
        r.restore_ms for r in rows if r.mechanism == "cxlfork"
    ]
    if cxlfork_restores:
        summary["cxlfork_restore_min_ms"] = min(cxlfork_restores)
        summary["cxlfork_restore_max_ms"] = max(cxlfork_restores)
    criu_restores = [r.restore_ms for r in rows if r.mechanism == "criu-cxl"]
    if criu_restores:
        summary["criu_restore_min_ms"] = min(criu_restores)
        summary["criu_restore_max_ms"] = max(criu_restores)
    mitosis_restores = [r.restore_ms for r in rows if r.mechanism == "mitosis-cxl"]
    if mitosis_restores:
        summary["mitosis_restore_max_ms"] = max(mitosis_restores)
    return summary


def format_rows(rows: list) -> str:
    """Fig. 7 as text: one block per function, one line per mechanism."""
    lines = [
        f"{'function':<10} {'mechanism':<12} {'restore':>9} {'faults':>9} "
        f"{'exec':>9} {'total':>9} {'localMB':>9}"
    ]
    for row in rows:
        lines.append(
            f"{row.function:<10} {row.mechanism:<12} {row.restore_ms:>9.2f} "
            f"{row.fault_ms:>9.2f} {row.exec_ms:>9.2f} {row.total_ms:>9.2f} "
            f"{row.local_mb:>9.1f}"
        )
    return "\n".join(lines) + "\n\n" + format_summary(headline(rows))
