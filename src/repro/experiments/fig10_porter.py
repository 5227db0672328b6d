"""Figure 10: CXLporter end-to-end under Azure-shaped load.

Four arms — CRIU-CXL, Mitosis-CXL, CXLfork-MoW (static), CXLfork (dynamic
tiering) — each driving the same trace on the same pod shape:

  (a)/(b) ample memory: P99 / P50 per function, normalized to CRIU-CXL.
  (c) memory-constrained: nodes at 100% / 50% / 25% of the baseline DRAM;
      the runtime has to recycle containers, so each mechanism's *local
      memory consumption* becomes the bottleneck.

Paper claims: with ample memory Mitosis-CXL and CXLfork cut P99 by ~51% and
~70% vs CRIU-CXL while P50 stays comparable; CXLfork-MoW lags CXLfork (and
sometimes Mitosis) on both percentiles; at 25% memory CXLfork's P99 is
~16x better and CXLfork == CXLfork-MoW (pressure forces MoW anyway).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.tables import format_summary
from repro.cxl.topology import PodTopology
from repro.experiments.common import claim, failed
from repro.faas.functions import function_names
from repro.faas.traces import TraceConfig, generate_trace
from repro.os.fs.cxlfs import CxlFileSystem
from repro.parallel import SweepPoint
from repro.porter.autoscaler import CxlPorter, PorterConfig
from repro.sim.units import GIB

#: The four arms, in plot order.
ARMS = ("criu-cxl", "mitosis-cxl", "cxlfork-mow", "cxlfork")


@dataclass(frozen=True)
class Config:
    """One Fig. 10 campaign.

    ``Config()`` is a reduced trace (80 RPS for 8 s at 100% memory).  The
    paper-scale campaigns, 150 RPS for 15 s at 100% memory and 100 RPS
    for 10 s at 25%, are ``benchmarks/test_bench_fig10.py``; each passes
    :func:`gates`.
    """

    total_rps: float = 80.0
    duration_s: float = 8.0
    seed: int = 42
    functions: Optional[list] = None
    baseline_dram_bytes: int = 10 * GIB
    memory_fractions: tuple = (1.0,)
    cpu_count: int = 16
    node_count: int = 2
    cxl_bytes: int = 24 * GIB
    #: Trace shape: moderate skew + strong bursts, so heavy functions get
    #: real traffic and scale-out events actually happen (§7.2 runs "Azure
    #: traces of bursty functions").
    popularity_skew: float = 0.7
    burst_factor: float = 8.0
    calm_mean_s: float = 5.0
    burst_mean_s: float = 1.5
    arms: tuple = ARMS

    @classmethod
    def quick(cls) -> "Config":
        return cls(total_rps=40.0, duration_s=4.0)


@dataclass
class Fig10Row:
    """P50/P99 of one (arm, memory level, function)."""

    arm: str
    memory_fraction: float
    function: str
    p50_ms: float
    p99_ms: float
    requests: int
    start_kinds: dict = field(default_factory=dict)


def _porter_for(arm: str, nodes, fabric) -> CxlPorter:
    if arm == "cxlfork-mow":
        config = PorterConfig(mechanism="cxlfork", static_mow=True)
    else:
        config = PorterConfig(mechanism=arm)
    cxlfs = CxlFileSystem(fabric) if config.mechanism == "criu-cxl" else None
    return CxlPorter(nodes, fabric, config=config, cxlfs=cxlfs)


def run_arm(
    arm: str, config: Config, memory_fraction: float
) -> list:
    """One arm at one memory level; returns per-function rows + 'ALL'."""
    functions = list(config.functions or function_names())
    topo = PodTopology.paper_testbed(
        node_count=config.node_count,
        dram_bytes=int(config.baseline_dram_bytes * memory_fraction),
        cxl_bytes=config.cxl_bytes,
        cpu_count=config.cpu_count,
    )
    fabric, nodes = topo.build()
    porter = _porter_for(arm, nodes, fabric)
    for i, fn in enumerate(functions):
        porter.register_function(fn)
        # Round-robin the prewarm so Mitosis' node-coupled templates don't
        # all land on one node (CXLfork/CRIU checkpoints are decoupled and
        # their seasoned parents exit).
        porter.prewarm_and_checkpoint(fn, node=nodes[i % len(nodes)])
    trace = generate_trace(
        TraceConfig(
            total_rps=config.total_rps,
            duration_s=config.duration_s,
            seed=config.seed,
            functions=functions,
            popularity_skew=config.popularity_skew,
            burst_factor=config.burst_factor,
            calm_mean_s=config.calm_mean_s,
            burst_mean_s=config.burst_mean_s,
        )
    )
    metrics = porter.run(trace)
    rows = []
    for fn in functions + ["ALL"]:
        key = None if fn == "ALL" else fn
        p50 = metrics.p50_ms(key)
        p99 = metrics.p99_ms(key)
        if p50 is None:
            continue
        rows.append(
            Fig10Row(
                arm=arm,
                memory_fraction=memory_fraction,
                function=fn,
                p50_ms=p50,
                p99_ms=p99,
                requests=metrics.count(key),
                start_kinds=metrics.start_kind_counts() if fn == "ALL" else {},
            )
        )
    return rows


def points(config: Config) -> list:
    """The Fig. 10 grid (memory levels × arms) as self-contained points.

    The frozen campaign config rides inside each point, so a worker can
    rebuild the whole pod + trace from the spec alone.
    """
    return [
        SweepPoint.make("fig10", arm=arm, memory_fraction=fraction, config=config)
        for fraction in config.memory_fractions
        for arm in config.arms
    ]


def run_point(point: SweepPoint) -> list:
    """One (arm, memory level) campaign; returns its per-function rows."""
    return run_arm(
        point.param("arm"),
        point.param("config"),
        point.param("memory_fraction"),
    )


def summarize(rows: list) -> list:
    """Concatenate the per-campaign rows in point order."""
    return [row for campaign in rows for row in campaign]


def gates(rows: list, quick: bool) -> list:
    """§7.2's claims at each memory level the result has.  Ample memory:
    CXLfork cuts P99 vs CRIU-CXL (paper -70%) and Mitosis-CXL too (-51%),
    dynamic CXLfork at or under CXLfork-MoW, and P50 comparable (full
    shape only: the quick trace is too short for it).  25% memory:
    CXLfork's P99 far under CRIU's and Mitosis', and equal to CXLfork-MoW
    (HighMem blocks promotions)."""
    s = headline(rows)
    claims = []
    if "mem100_cxlfork_p99_vs_criu" in s:
        claims += [
            claim("mem100_cxlfork_p99_vs_criu", s["mem100_cxlfork_p99_vs_criu"], le=0.75),
            claim("mem100_mitosis-cxl_p99_vs_criu",
                  s["mem100_mitosis-cxl_p99_vs_criu"], le=0.80),
            claim("mem100_cxlfork_p99_vs_criu", s["mem100_cxlfork_p99_vs_criu"],
                  le=s["mem100_cxlfork-mow_p99_vs_criu"] + 1e-9),
        ]
        if not quick:
            claims += [
                claim(f"mem100_{arm}_p50_vs_criu", s[f"mem100_{arm}_p50_vs_criu"],
                      ge=0.85, le=1.2)
                for arm in ("mitosis-cxl", "cxlfork")
            ]
    if "mem25_cxlfork_p99_vs_criu" in s:
        cxlfork = s["mem25_cxlfork_p99_vs_criu"]
        claims += [
            claim("mem25_cxlfork_p99_vs_criu", cxlfork, le=0.5),
            claim("mem25 cxlfork/cxlfork-mow p99",
                  cxlfork / s["mem25_cxlfork-mow_p99_vs_criu"], ge=0.8, le=1.2),
            claim("mem25_cxlfork_p99_vs_criu", cxlfork,
                  lt=s["mem25_mitosis-cxl_p99_vs_criu"]),
        ]
    return failed("fig10", claims)


def headline(rows: list) -> dict:
    """Normalized-to-CRIU aggregates per memory level."""
    summary: dict = {}
    fractions = sorted({r.memory_fraction for r in rows}, reverse=True)
    for fraction in fractions:
        level = [r for r in rows if r.memory_fraction == fraction and r.function == "ALL"]
        by_arm = {r.arm: r for r in level}
        criu = by_arm.get("criu-cxl")
        if criu is None:
            continue
        tag = f"mem{int(fraction * 100)}"
        for arm, row in by_arm.items():
            summary[f"{tag}_{arm}_p99_vs_criu"] = row.p99_ms / criu.p99_ms
            summary[f"{tag}_{arm}_p50_vs_criu"] = row.p50_ms / criu.p50_ms
    return summary


def format_rows(rows: list) -> str:
    """The all-function ('ALL') rows, then the normalized aggregates."""
    lines = [
        f"{'mem%':>5} {'arm':<12} {'function':<10} {'p50(ms)':>9} "
        f"{'p99(ms)':>9} {'n':>6}"
    ]
    for row in rows:
        if row.function != "ALL":
            continue
        lines.append(
            f"{int(row.memory_fraction * 100):>5} {row.arm:<12} "
            f"{row.function:<10} {row.p50_ms:>9.1f} {row.p99_ms:>9.1f} "
            f"{row.requests:>6}"
        )
    return "\n".join(lines) + "\n\n" + format_summary(headline(rows))
