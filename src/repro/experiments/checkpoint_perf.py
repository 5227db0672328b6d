"""Checkpoint performance (§7.1, "Checkpoint Performance").

Paper claims: Mitosis and CXLfork checkpoint about an order of magnitude
faster than CRIU (no data serialization), and Mitosis checkpoints ~1.5x
faster than CXLfork (local-DRAM shadow copies vs non-temporal stores into
CXL) — at the price of keeping the checkpoint coupled to the parent node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.tables import format_summary
from repro.experiments.common import (
    claim,
    failed,
    geometric_mean,
    make_pod,
    prepare_parent,
)
from repro.faas.functions import function_names
from repro.parallel import SweepPoint
from repro.rfork.registry import get_mechanism
from repro.sim.units import MIB, MS

CHECKPOINTERS = ("criu-cxl", "mitosis-cxl", "cxlfork")


@dataclass
class CheckpointRow:
    """One (function, mechanism) checkpoint measurement."""

    function: str
    mechanism: str
    latency_ms: float
    cxl_mb: float
    local_shadow_mb: float
    serialized_mb: float


@dataclass(frozen=True)
class Config:
    """Which functions to checkpoint (None = all of Table 1)."""

    functions: Optional[tuple] = None

    @classmethod
    def quick(cls) -> "Config":
        return cls(functions=("float", "json", "bfs", "bert"))


def points(config: Config) -> list:
    names = config.functions or function_names()
    return [
        SweepPoint.make("checkpoint", function=fn, mechanism=mech)
        for fn in names
        for mech in CHECKPOINTERS
    ]


def run_point(point: SweepPoint) -> CheckpointRow:
    """Checkpoint one seasoned function with one mechanism, fresh pod."""
    mech_name = point.param("mechanism")
    pod = make_pod()
    parent = prepare_parent(pod, point.param("function"))
    mech = get_mechanism(mech_name, fabric=pod.fabric, cxlfs=pod.cxlfs)
    _, metrics = mech.checkpoint(parent.instance.task)
    return CheckpointRow(
        function=point.param("function"),
        mechanism=mech_name,
        latency_ms=metrics.latency_ns / MS,
        cxl_mb=metrics.cxl_bytes / MIB,
        local_shadow_mb=metrics.local_shadow_bytes / MIB,
        serialized_mb=metrics.serialized_bytes / MIB,
    )


def summarize(rows: list) -> list:
    return rows


def gates(rows: list, quick: bool) -> list:
    """CRIU checkpoints many times slower than both (paper ~10x); Mitosis
    ~1.5x faster than CXLfork; CXLfork's image lives on the device and
    is barely serialized, Mitosis' is a parent-local shadow, CRIU's is
    fully serialized files."""
    s = headline(rows)
    by_mech: dict[str, list[CheckpointRow]] = {}
    for row in rows:
        by_mech.setdefault(row.mechanism, []).append(row)
    return failed("checkpoint", [
        claim("criu_vs_cxlfork", s["criu_vs_cxlfork"], ge=4.0),
        claim("criu_vs_mitosis", s["criu_vs_mitosis"], ge=5.0),
        claim("cxlfork_vs_mitosis", s["cxlfork_vs_mitosis"], ge=1.2, le=1.9),
        (all(r.cxl_mb > 0 for r in by_mech["cxlfork"]),
         "a CXLfork checkpoint holds no CXL memory"),
        (all(r.local_shadow_mb > 0 for r in by_mech["mitosis-cxl"]),
         "a Mitosis-CXL checkpoint has no local shadow"),
        (all(r.cxl_mb == 0 for r in by_mech["mitosis-cxl"]),
         "a Mitosis-CXL checkpoint holds CXL memory"),
        (all(r.serialized_mb < 0.1 for r in by_mech["cxlfork"]),
         "a CXLfork checkpoint serialized >= 0.1 MB"),
        (all(r.serialized_mb > 10 for r in by_mech["criu-cxl"]),
         "a CRIU-CXL checkpoint serialized <= 10 MB"),
    ])


def headline(rows: list) -> dict:
    by_fn: dict[str, dict[str, CheckpointRow]] = {}
    for row in rows:
        by_fn.setdefault(row.function, {})[row.mechanism] = row

    def ratio(numer: str, denom: str) -> float:
        values = [
            cells[numer].latency_ms / cells[denom].latency_ms
            for cells in by_fn.values()
            if numer in cells and denom in cells and cells[denom].latency_ms > 0
        ]
        return geometric_mean(values)

    return {
        "criu_vs_cxlfork": ratio("criu-cxl", "cxlfork"),      # paper: ~10x
        "criu_vs_mitosis": ratio("criu-cxl", "mitosis-cxl"),  # paper: ~10x
        "cxlfork_vs_mitosis": ratio("cxlfork", "mitosis-cxl"),  # paper: ~1.5x
    }


def format_rows(rows: list) -> str:
    lines = [
        f"{'function':<12} {'mechanism':<12} {'ckpt(ms)':>9} {'cxl(MB)':>9} "
        f"{'shadow(MB)':>11} {'serialized(MB)':>15}"
    ]
    for row in rows:
        lines.append(
            f"{row.function:<12} {row.mechanism:<12} {row.latency_ms:>9.2f} "
            f"{row.cxl_mb:>9.1f} {row.local_shadow_mb:>11.1f} "
            f"{row.serialized_mb:>15.3f}"
        )
    return "\n".join(lines) + "\n\n" + format_summary(headline(rows))
