"""Extension experiment: scaling clones across many nodes (§8).

"In a large cluster, we anticipate that limited CXL bandwidth may be a
bottleneck.  In this case, our current tiering policies may not be the
most appropriate ones, as they are mainly driven by access latencies."

We build pods of 2-16 nodes around one shared device with a bandwidth
tracker, restore one clone of a cache-exceeding function on every node,
and drive warm invocations to a latency/throughput fixed point: each
clone's CXL traffic inflates everyone's effective access latency, which in
turn throttles traffic.  Migrate-on-write keeps all read-only state on the
device and collapses as nodes multiply; the bandwidth-aware policy
(implemented in :mod:`repro.tiering.bandwidth_aware`) detects saturation
and copies hot pages local, flattening the curve at the cost of
deduplication.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.tables import format_summary
from repro.cxl.bandwidth import BandwidthTracker
from repro.cxl.topology import PodTopology
from repro.experiments.common import claim, failed
from repro.faas.workload import FunctionWorkload
from repro.parallel import SweepPoint
from repro.rfork.cxlfork import CxlFork
from repro.sim.units import GIB, MS
from repro.tiering.bandwidth_aware import BandwidthAwareTiering
from repro.tiering.mow import MigrateOnWrite

#: Bytes of fabric traffic per page-granularity miss event (a page's worth
#: of cache lines trickling in across the re-references it stands for).
MISS_TRAFFIC_BYTES = 512
#: Device bandwidth for the scalability study (FPGA-prototype class).
DEVICE_GBPS = 6.0
#: Warm-invocation rounds driven toward the latency/throughput fixed point.
FIXED_POINT_ROUNDS = 4


@dataclass
class ScalabilityRow:
    """Mean warm invocation time per clone at the fixed point."""

    policy: str
    node_count: int
    warm_ms: float
    fabric_utilization: float
    local_mb_per_clone: float


def _policy_for(kind: str, fabric):
    if kind == "mow":
        return MigrateOnWrite()
    if kind == "bandwidth-aware":
        return BandwidthAwareTiering(fabric)
    raise ValueError(f"unknown policy kind {kind!r}")


@dataclass(frozen=True)
class Config:
    """Tiering policies × pod sizes, cloning one function."""

    node_counts: tuple = (2, 4, 8, 16)
    policies: tuple = ("mow", "bandwidth-aware")
    function: str = "bert"

    @classmethod
    def quick(cls) -> "Config":
        return cls(node_counts=(2, 8))


def points(config: Config) -> list:
    """The policies × node-count grid as self-contained sweep points."""
    return [
        SweepPoint.make(
            "scalability", policy=policy, node_count=count, function=config.function
        )
        for policy in config.policies
        for count in config.node_counts
    ]


def run_point(point: SweepPoint) -> ScalabilityRow:
    """One clone per node of a fresh pod, driven to the bandwidth fixed point."""
    policy_kind = point.param("policy")
    node_count = point.param("node_count")
    function = point.param("function")
    topology = PodTopology.paper_testbed(
        node_count=node_count, dram_bytes=8 * GIB, cxl_bytes=24 * GIB
    )
    fabric, nodes = topology.build()
    fabric.bandwidth = BandwidthTracker(capacity_gbps=DEVICE_GBPS)

    workload = FunctionWorkload(function)
    parent = workload.build_instance(nodes[0])
    workload.season(parent)
    mech = CxlFork()
    checkpoint, _ = mech.checkpoint(parent.task)
    nodes[0].kernel.exit_task(parent.task)

    children = []
    for node in nodes:
        policy = _policy_for(policy_kind, fabric)
        restored = mech.restore(checkpoint, node, policy=policy)
        children.append(workload.placed_plan_for(parent, restored.task))

    # Iterate to the latency/throughput fixed point: traffic inflates
    # latency, which throttles traffic.
    last_results = []
    for _ in range(FIXED_POINT_ROUNDS):
        last_results = [workload.invoke(child) for child in children]
        for child, result in zip(children, last_results):
            misses = result.first_touch_misses + result.reaccess_misses
            cxl_bytes = misses * result.cxl_fraction * MISS_TRAFFIC_BYTES
            gbps = cxl_bytes / result.wall_ns if result.wall_ns else 0.0
            fabric.bandwidth.register_stream(f"clone@{child.node.name}", gbps)

    warm_ms = sum(r.wall_ns for r in last_results) / len(last_results) / MS
    local_mb = sum(
        c.task.mm.owned_local_pages * 4096 / (1 << 20) for c in children
    ) / len(children)
    return ScalabilityRow(
        policy=policy_kind,
        node_count=node_count,
        warm_ms=warm_ms,
        fabric_utilization=fabric.bandwidth.utilization(),
        local_mb_per_clone=local_mb,
    )


def summarize(rows: list) -> list:
    return rows


def gates(rows: list, quick: bool) -> list:
    """Bandwidth-aware tiering keeps clones near their smallest-pod speed
    by keeping the fabric cooler, at the price of local memory.  MoW's
    collapse (> 2x) needs the 16-node pod: full shape only."""
    s = headline(rows)
    mow = [r for r in rows if r.policy == "mow"][0]
    aware = [r for r in rows if r.policy == "bandwidth-aware"][0]
    claims = [
        claim("bandwidth-aware_slowdown", s["bandwidth-aware_slowdown"], lt=1.3),
        claim("bandwidth-aware_peak_utilization", s["bandwidth-aware_peak_utilization"],
              lt=s["mow_peak_utilization"]),
        claim("bandwidth-aware local_mb_per_clone", aware.local_mb_per_clone,
              gt=2 * mow.local_mb_per_clone),
    ]
    if not quick:
        claims.append(claim("mow_slowdown", s["mow_slowdown"], gt=2.0))
    return failed("scalability", claims)


def headline(rows: list) -> dict:
    by_policy: dict[str, list[ScalabilityRow]] = {}
    for row in rows:
        by_policy.setdefault(row.policy, []).append(row)
    summary = {}
    for policy, points in by_policy.items():
        points = sorted(points, key=lambda r: r.node_count)
        summary[f"{policy}_slowdown"] = points[-1].warm_ms / points[0].warm_ms
        summary[f"{policy}_peak_utilization"] = max(
            r.fabric_utilization for r in points
        )
    return summary


def format_rows(rows: list) -> str:
    lines = [
        f"{'policy':<16} {'nodes':>6} {'warm(ms)':>10} {'fabric util':>12} "
        f"{'localMB/clone':>14}"
    ]
    for row in rows:
        lines.append(
            f"{row.policy:<16} {row.node_count:>6} {row.warm_ms:>10.1f} "
            f"{row.fabric_utilization:>12.2f} {row.local_mb_per_clone:>14.1f}"
        )
    return "\n".join(lines) + "\n\n" + format_summary(headline(rows))
