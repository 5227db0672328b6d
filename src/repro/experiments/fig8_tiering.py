"""Figure 8: tiering-policy trade-offs.

For every function and each policy — Migrate-on-Write (MoW, default),
Migrate-on-Access (MoA), Hybrid Tiering (HT) — measure:

  (a) cold execution time (restore + first invocation),
  (b) warm execution time (a later invocation on the same child),
  (c) the child's local memory consumption.

Paper shapes: MoA trims warm time ~11% on average but inflates cold time
~14% and memory ~250%; HT sits between MoW and MoA for the cache-exceeding
functions (BFS, Bert) and matches MoW's cold time elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.tables import format_summary
from repro.experiments.common import child_local_bytes, make_pod, prepare_parent
from repro.faas.functions import function_names
from repro.parallel import SweepPoint
from repro.rfork.cxlfork import CxlFork
from repro.sim.units import MIB, MS
from repro.tiering import HybridTiering, MigrateOnAccess, MigrateOnWrite

POLICIES = {
    "mow": MigrateOnWrite,
    "moa": MigrateOnAccess,
    "hybrid": HybridTiering,
}


@dataclass
class Fig8Row:
    """One (function, policy) cell of Fig. 8."""

    function: str
    policy: str
    cold_ms: float
    warm_ms: float
    local_mb: float


@dataclass(frozen=True)
class Config:
    """Functions (None = all of Table 1) and warm rounds per child."""

    functions: Optional[tuple] = None
    warm_invocations: int = 3

    @classmethod
    def quick(cls) -> "Config":
        return cls(functions=("float", "json", "bfs", "bert"))


def points(config: Config) -> list:
    names = config.functions or function_names()
    return [
        SweepPoint.make(
            "fig8",
            function=fn,
            policy=policy,
            warm_invocations=config.warm_invocations,
        )
        for fn in names
        for policy in POLICIES
    ]


def run_point(point: SweepPoint) -> Fig8Row:
    """Restore one function under one policy on a fresh pod; cold + warm."""
    fn = point.param("function")
    pod = make_pod()
    parent = prepare_parent(pod, fn)
    workload = parent.workload
    mech = CxlFork()
    ckpt, _ = mech.checkpoint(parent.instance.task)
    policy = POLICIES[point.param("policy")]()
    restore = mech.restore(ckpt, pod.target, policy=policy)
    child = workload.placed_plan_for(parent.instance, restore.task)
    first = workload.invoke(child)
    cold_ms = (restore.metrics.latency_ns + first.wall_ns) / MS
    warm = None
    for _ in range(point.param("warm_invocations")):
        warm = workload.invoke(child)
    return Fig8Row(
        function=fn,
        policy=point.param("policy"),
        cold_ms=cold_ms,
        warm_ms=warm.wall_ns / MS,
        local_mb=child_local_bytes(child) / MIB,
    )


def summarize(rows: list) -> list:
    return rows


def gates(rows: list) -> list:
    return []


def headline(rows: list) -> dict:
    """The §7.1 tiering claims, as ratios of MoA/HT against MoW."""
    by_fn: dict[str, dict[str, Fig8Row]] = {}
    for row in rows:
        by_fn.setdefault(row.function, {})[row.policy] = row

    def mean_ratio(policy: str, field: str) -> float:
        values = []
        for cells in by_fn.values():
            if policy in cells and "mow" in cells:
                den = getattr(cells["mow"], field)
                if den > 0:
                    values.append(getattr(cells[policy], field) / den)
        return sum(values) / len(values) if values else 0.0

    summary = {
        "moa_warm_vs_mow": mean_ratio("moa", "warm_ms"),      # paper ~0.89
        "moa_cold_vs_mow": mean_ratio("moa", "cold_ms"),      # paper ~1.14
        "moa_mem_vs_mow": mean_ratio("moa", "local_mb"),      # paper ~3.5
        "hybrid_cold_vs_mow": mean_ratio("hybrid", "cold_ms"),
        "hybrid_warm_vs_mow": mean_ratio("hybrid", "warm_ms"),
        "hybrid_mem_vs_mow": mean_ratio("hybrid", "local_mb"),
    }
    for fn in ("bfs", "bert"):
        cells = by_fn.get(fn)
        if cells and {"mow", "moa", "hybrid"} <= set(cells):
            summary[f"{fn}_warm_order_ok"] = (
                cells["moa"].warm_ms <= cells["hybrid"].warm_ms <= cells["mow"].warm_ms * 1.02
            )
            summary[f"{fn}_mem_order_ok"] = (
                cells["mow"].local_mb <= cells["hybrid"].local_mb <= cells["moa"].local_mb * 1.02
            )
    return summary


def format_rows(rows: list) -> str:
    lines = [f"{'function':<12} {'policy':<8} {'cold(ms)':>10} {'warm(ms)':>10} {'mem(MB)':>9}"]
    for row in rows:
        lines.append(
            f"{row.function:<12} {row.policy:<8} {row.cold_ms:>10.2f} "
            f"{row.warm_ms:>10.2f} {row.local_mb:>9.1f}"
        )
    return "\n".join(lines) + "\n\n" + format_summary(headline(rows))
