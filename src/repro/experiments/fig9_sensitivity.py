"""Figure 9: sensitivity of CXLfork to the CXL device latency.

The paper calibrates a simulator against the 391 ns FPGA prototype and
sweeps the round-trip latency down to 100 ns (local-DRAM-like).  We do the
same by swapping the fabric's latency model:

  (a) *warm* execution time of a CXLfork child (MoW: read-only state on
      CXL) relative to warm local-fork execution without CXL — only the
      cache-exceeding functions (BFS, Bert) should be sensitive;
  (b) *cold* execution (restore + first invocation) relative to a local
      fork's cold execution — at low latency CXLfork matches or beats the
      local fork because it attaches OS state and file mappings instead of
      rebuilding them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.tables import format_summary
from repro.cxl.latency import MemoryLatencyModel
from repro.experiments.common import (
    claim,
    failed,
    make_pod,
    measure_cold_start,
    prepare_parent,
)
from repro.parallel import SweepPoint

#: The sweep points (round-trip ns); 400 ≈ the real device, 100 ≈ local.
LATENCIES_NS = (400.0, 300.0, 200.0, 100.0)

#: "For space reasons, we show only the most representative functions."
REPRESENTATIVE = ("float", "json", "cnn", "bfs", "bert")


@dataclass
class Fig9Row:
    """One point of Fig. 9a/9b."""

    function: str
    cxl_latency_ns: float
    warm_relative: float  # CXLfork warm / local-fork warm
    cold_relative: float  # CXLfork cold / local-fork cold


@dataclass(frozen=True)
class Config:
    """Functions × CXL round-trip latencies (ns)."""

    functions: tuple = REPRESENTATIVE
    latencies: tuple = LATENCIES_NS

    @classmethod
    def quick(cls) -> "Config":
        return cls(functions=("float", "bert"), latencies=(400.0, 100.0))


def points(config: Config) -> list:
    return [
        SweepPoint.make("fig9", function=fn, cxl_latency_ns=lat)
        for fn in config.functions
        for lat in config.latencies
    ]


def run_point(point: SweepPoint) -> Fig9Row:
    """Local fork vs CXLfork of one function at one latency, fresh pods."""
    function = point.param("function")
    cxl_latency_ns = point.param("cxl_latency_ns")
    latency = MemoryLatencyModel().with_cxl_latency(cxl_latency_ns)

    # Local-fork reference (its own pod; no CXL involvement in execution).
    local_pod = make_pod(latency=latency)
    local = measure_cold_start(
        local_pod, prepare_parent(local_pod, function), "localfork", keep_child=True
    )
    warm_local_ns = _warm_ns_of(local.child)

    # CXLfork under the swept latency.
    cxl_pod = make_pod(latency=latency)
    parent = prepare_parent(cxl_pod, function)
    cxl = measure_cold_start(cxl_pod, parent, "cxlfork", keep_child=True)
    warm_cxl_ns = _warm_ns_of(cxl.child)

    return Fig9Row(
        function=function,
        cxl_latency_ns=cxl_latency_ns,
        warm_relative=warm_cxl_ns / warm_local_ns,
        cold_relative=cxl.total_ns / local.total_ns,
    )


def _warm_ns_of(child) -> float:
    """Steady-state invocation time of an instance (3 warm rounds)."""
    from repro.faas.invocation import InvocationEngine

    engine = InvocationEngine()
    result = None
    base = child.invocations
    for i in range(3):
        result = engine.run(child.task, child.plan, base + i)
    child.invocations = base + 3
    return result.wall_ns


def summarize(rows: list) -> list:
    return rows


def gates(rows: list, quick: bool) -> list:
    """Lower CXL latency speeds up warm BFS/Bert only (still penalized at
    200 ns); cold time falls with latency, and at the lowest CXLfork
    beats a local fork for the big functions.  Each claim applies to the
    functions and latencies the result has."""
    s = headline(rows)
    by_fn: dict[str, list[Fig9Row]] = {}
    for row in rows:
        by_fn.setdefault(row.function, []).append(row)
    claims = []
    for fn, points in by_fn.items():
        if fn in ("bfs", "bert"):
            claims.append(claim(f"{fn}_warm_gain", s[f"{fn}_warm_gain"], gt=0.10))
            claims += [
                claim(f"{fn} warm_relative at 200 ns", r.warm_relative, gt=1.05)
                for r in points if r.cxl_latency_ns == 200.0
            ]
        elif fn in ("float", "json", "cnn"):
            claims.append(claim(f"{fn}_warm_gain", s[f"{fn}_warm_gain"], lt=0.10))
        if fn in ("cnn", "bfs", "bert"):
            claims.append(claim(f"{fn}_cold_at_low_latency",
                                s[f"{fn}_cold_at_low_latency"], lt=1.0))
        colds = [r.cold_relative for r in sorted(points, key=lambda r: r.cxl_latency_ns)]
        claims.append((colds == sorted(colds),
                       f"{fn}: cold time does not fall as CXL latency drops"))
    return failed("fig9", claims)


def headline(rows: list) -> dict:
    """The §7.1 sensitivity claims."""
    by_fn: dict[str, list[Fig9Row]] = {}
    for row in rows:
        by_fn.setdefault(row.function, []).append(row)
    summary: dict = {}
    for fn, points in by_fn.items():
        points = sorted(points, key=lambda r: r.cxl_latency_ns)
        lowest, highest = points[0], points[-1]
        # Warm sensitivity: does lowering latency help?
        summary[f"{fn}_warm_gain"] = highest.warm_relative - lowest.warm_relative
        summary[f"{fn}_cold_at_low_latency"] = lowest.cold_relative
    return summary


def format_rows(rows: list) -> str:
    lines = [
        f"{'function':<10} {'latency(ns)':>12} {'warm rel.':>10} {'cold rel.':>10}"
    ]
    for row in rows:
        lines.append(
            f"{row.function:<10} {row.cxl_latency_ns:>12.0f} "
            f"{row.warm_relative:>10.3f} {row.cold_relative:>10.3f}"
        )
    return "\n".join(lines) + "\n\n" + format_summary(headline(rows))


def chart(rows: list) -> str:
    """Fig. 9a as an ASCII line plot (warm time vs CXL latency)."""
    from repro.analysis.plotting import ascii_series

    xs = sorted({row.cxl_latency_ns for row in rows})
    series: dict = {}
    for row in sorted(rows, key=lambda r: r.cxl_latency_ns):
        series.setdefault(row.function, []).append(row.warm_relative)
    complete = {k: v for k, v in series.items() if len(v) == len(xs)}
    return ascii_series(
        list(xs), complete, x_label="CXL round trip (ns)",
        y_label="warm time relative to local fork",
    )
