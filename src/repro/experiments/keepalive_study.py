"""Extension experiment: keep-alive window sizing (§5's future work).

"We consider studying different window sizes for different functions as
future work."  With CXLfork, a cold start costs milliseconds instead of
hundreds of milliseconds, so the classic keep-idle-for-minutes policy
mostly wastes memory.  This study sweeps the keep-alive window and
measures, per window, the P99 latency and the node memory a CXLporter
deployment holds — exposing the latency/memory Pareto directly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.tables import format_summary
from repro.cxl.topology import PodTopology
from repro.experiments.common import claim, failed
from repro.faas.traces import TraceConfig, generate_trace
from repro.parallel import SweepPoint
from repro.porter.autoscaler import CxlPorter, PorterConfig
from repro.porter.keepalive import KeepAlivePolicy
from repro.sim.units import GIB, SEC

#: The swept windows (seconds of idleness before eviction).
WINDOWS_S = (1, 10, 60, 600)


@dataclass
class KeepAliveRow:
    """One window size's outcome."""

    window_s: float
    p50_ms: float
    p99_ms: float
    restores: int
    warm_hits: int
    mean_dram_used_mb: float


#: Trace seed of the study.
SEED = 11


@dataclass(frozen=True)
class Config:
    """Swept windows, the deployed functions, and the offered load."""

    windows: tuple = WINDOWS_S
    functions: tuple = ("float", "json", "cnn", "bert")
    total_rps: float = 40.0
    duration_s: float = 20.0

    @classmethod
    def quick(cls) -> "Config":
        return cls(windows=(1, 60), functions=("float",), total_rps=8.0, duration_s=4.0)


def points(config: Config) -> list:
    return [
        SweepPoint.make("keepalive", window_s=window_s, config=config)
        for window_s in config.windows
    ]


def run_point(point: SweepPoint) -> KeepAliveRow:
    """One CXLporter deployment serving the trace under one window."""
    config = point.param("config")
    window_s = point.param("window_s")
    fabric, nodes = PodTopology.paper_testbed(
        dram_bytes=8 * GIB, cxl_bytes=16 * GIB, cpu_count=16
    ).build()
    keepalive = KeepAlivePolicy(
        normal_window_ns=int(window_s * SEC),
        pressured_window_ns=int(min(window_s, 10) * SEC),
    )
    porter = CxlPorter(
        nodes, fabric, config=PorterConfig(mechanism="cxlfork", keepalive=keepalive)
    )
    for fn in config.functions:
        porter.register_function(fn)
        porter.prewarm_and_checkpoint(fn)
    trace = generate_trace(
        TraceConfig(
            total_rps=config.total_rps,
            duration_s=config.duration_s,
            seed=SEED,
            functions=list(config.functions),
            # Sparse-ish per-function arrivals so idleness actually
            # exceeds the short windows.
            popularity_skew=0.4,
            burst_factor=6.0,
            calm_mean_s=4.0,
            burst_mean_s=1.0,
        )
    )
    metrics = porter.run(trace, until=int((config.duration_s + 60) * SEC))
    kinds = metrics.start_kind_counts()
    used_mb = sum(n.dram_used_bytes for n in nodes) / len(nodes) / (1 << 20)
    return KeepAliveRow(
        window_s=window_s,
        p50_ms=metrics.p50_ms() or 0.0,
        p99_ms=metrics.p99_ms() or 0.0,
        restores=kinds.get("restore", 0),
        warm_hits=kinds.get("warm", 0),
        mean_dram_used_mb=used_mb,
    )


def summarize(rows: list) -> list:
    return rows


def gates(rows: list, quick: bool) -> list:
    """Short windows cost little P99, because CXLfork restores are
    milliseconds (§5).  That they restore more often yet hold less memory
    shows only on the full trace: the quick one restores as often at
    every window."""
    s = headline(rows)
    claims = [claim("p99_ratio_short_vs_long", s["p99_ratio_short_vs_long"], lt=1.15)]
    if not quick:
        claims += [
            claim("restore_ratio_short_vs_long", s["restore_ratio_short_vs_long"], gt=1.5),
            claim("memory_ratio_short_vs_long", s["memory_ratio_short_vs_long"], lt=0.7),
        ]
    return failed("keepalive", claims)


def headline(rows: list) -> dict:
    by_window = {row.window_s: row for row in rows}
    shortest = by_window[min(by_window)]
    longest = by_window[max(by_window)]
    return {
        # Short windows trade restores for memory: more restores...
        "restore_ratio_short_vs_long": (
            shortest.restores / max(longest.restores, 1)
        ),
        # ... but hold much less memory at the end of the run ...
        "memory_ratio_short_vs_long": (
            shortest.mean_dram_used_mb / max(longest.mean_dram_used_mb, 1e-9)
        ),
        # ... while CXLfork keeps the latency cost of doing so small.
        "p99_ratio_short_vs_long": shortest.p99_ms / max(longest.p99_ms, 1e-9),
    }


def format_rows(rows: list) -> str:
    lines = [
        f"{'window(s)':>10} {'p50(ms)':>9} {'p99(ms)':>9} {'restores':>9} "
        f"{'warm':>6} {'dram(MB)':>9}"
    ]
    for row in rows:
        lines.append(
            f"{row.window_s:>10.0f} {row.p50_ms:>9.1f} {row.p99_ms:>9.1f} "
            f"{row.restores:>9} {row.warm_hits:>6} {row.mean_dram_used_mb:>9.0f}"
        )
    return "\n".join(lines) + "\n\n" + format_summary(headline(rows))
