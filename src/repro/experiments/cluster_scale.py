"""Extension experiment: federated pods vs. one naive big pod (§8).

§8 anticipates two things about scale: a global scheduler layered over the
per-pod autoscaler, and per-pod CXL bandwidth becoming the bottleneck.
This experiment measures both.  Two arms serve the *same* Azure-shaped
trace with the same total hardware (pods × nodes, identical per-node DRAM
and per-device CXL):

* **single-pod** — the naive scale-up: every node cabled to ONE device,
  one CXLporter.  Intra-pod restores are always CXL-local, but all
  instances share one device's bandwidth, and contention inflates every
  CXL access as load rises (:mod:`repro.cxl.bandwidth`).
* **federated** — pods of a few nodes each, one device per pod, a global
  :class:`~repro.cluster.router.ClusterRouter` placing each invocation by
  checkpoint locality / load / free capacity.  Images fan out across the
  RDMA interconnect at prewarm (push), with pull-on-miss covering any
  pod the push missed.

At low RPS the single pod wins slightly (no interconnect hops, every
checkpoint local).  As RPS grows its shared device saturates and the
queueing inflation drives tail cold-starts (restore under contention) up,
while the federation splits offered load P ways and keeps each device in
the flat part of the 1/(1-ρ) curve — the paper's argument for why a
cluster of CXL pods beats one giant pod.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.tables import format_summary
from repro.check import CheckFailure
from repro.check.cluster import audit_federation
from repro.cluster import ClusterRouter, RouterConfig, build_federation
from repro.cxl.bandwidth import BandwidthTracker
from repro.cxl.topology import PodTopology
from repro.experiments.common import failed
from repro.faas.traces import TraceConfig, generate_trace
from repro.os.fs.cxlfs import CxlFileSystem
from repro.parallel import SweepPoint
from repro.porter.autoscaler import CxlPorter, PorterConfig
from repro.sim.units import GIB

#: Start kinds that did not hit a warm instance (the cold-start tail).
COLD_KINDS = ("restore", "cold")
#: Per-device sustained bandwidth (FPGA-prototype class, as in the
#: scalability experiment).  Both arms use the *same* device — the naive
#: arm cables every node to one of them, which is exactly its handicap.
DEVICE_GBPS = 6.0
#: Average CXL traffic one running instance offers its pod's device.
STREAM_GBPS = 0.8
#: Keep-alive window (§5's short-window regime): short enough that idle
#: instances expire between bursts, so cold starts recur *under* load
#: instead of only in the initial scale-out wave.
KEEPALIVE_S = 1.0


@dataclass
class ClusterScaleConfig:
    """One pods×nodes×RPS sweep."""

    pod_count: int = 4
    nodes_per_pod: int = 2
    rps_list: tuple = (40.0, 120.0, 240.0)
    duration_s: float = 5.0
    seed: int = 42
    functions: tuple = ("float", "json", "html", "cnn")
    dram_bytes: int = 6 * GIB
    cxl_bytes: int = 16 * GIB
    cpu_count: int = 8
    mechanism: str = "cxlfork"
    replication: str = "push"
    link: str = "rdma"
    device_gbps: float = DEVICE_GBPS
    stream_gbps: float = STREAM_GBPS
    keepalive_s: float = KEEPALIVE_S
    #: Trace shape (bursty, like Fig. 10).
    popularity_skew: float = 0.7
    burst_factor: float = 8.0
    calm_mean_s: float = 5.0
    burst_mean_s: float = 1.5

    @classmethod
    def quick(cls) -> "ClusterScaleConfig":
        """The quick shape: 2 pods, 2 RPS points, tiny functions."""
        return cls(
            pod_count=2,
            rps_list=(20.0, 80.0),
            duration_s=2.0,
            functions=("float", "json"),
        )


#: The experiment protocol's name for this module's config.
Config = ClusterScaleConfig


@dataclass
class ClusterScaleRow:
    """One (arm, RPS) measurement."""

    arm: str
    pods: int
    nodes_per_pod: int
    rps: float
    p50_ms: float
    p99_ms: float
    #: P99 over requests that did NOT hit a warm instance.
    cold_p99_ms: Optional[float]
    requests: int
    failed: int
    start_kinds: dict = field(default_factory=dict)
    #: Federation-only signals (zero for the single-pod arm).
    reroutes: int = 0
    pulls: int = 0
    interconnect_mb: float = 0.0


def _trace(config: ClusterScaleConfig, rps: float):
    return generate_trace(
        TraceConfig(
            total_rps=rps,
            duration_s=config.duration_s,
            seed=config.seed,
            functions=list(config.functions),
            popularity_skew=config.popularity_skew,
            burst_factor=config.burst_factor,
            calm_mean_s=config.calm_mean_s,
            burst_mean_s=config.burst_mean_s,
        )
    )


def _topology(config: ClusterScaleConfig, node_count: int) -> PodTopology:
    return PodTopology.paper_testbed(
        node_count=node_count,
        dram_bytes=config.dram_bytes,
        cxl_bytes=config.cxl_bytes,
        cpu_count=config.cpu_count,
    )


def _porter_config(config: ClusterScaleConfig) -> PorterConfig:
    from repro.porter.keepalive import KeepAlivePolicy
    from repro.sim.units import SEC

    window_ns = int(config.keepalive_s * SEC)
    return PorterConfig(
        mechanism=config.mechanism,
        cxl_stream_gbps=config.stream_gbps,
        seed=config.seed,
        keepalive=KeepAlivePolicy(
            normal_window_ns=window_ns,
            pressured_window_ns=min(window_ns, int(0.5 * SEC)),
        ),
    )


def _row_from(metrics, *, arm, config, rps, router=None) -> ClusterScaleRow:
    from repro.sim.units import MS

    cold = metrics.latencies_for_kinds(COLD_KINDS)
    cold_p99 = None
    if cold.size:
        import numpy as np

        cold_p99 = float(np.percentile(cold, 99)) / MS
    kinds = metrics.start_kind_counts()
    return ClusterScaleRow(
        arm=arm,
        pods=config.pod_count if arm == "federated" else 1,
        nodes_per_pod=(
            config.nodes_per_pod
            if arm == "federated"
            else config.pod_count * config.nodes_per_pod
        ),
        rps=rps,
        p50_ms=metrics.p50_ms() or 0.0,
        p99_ms=metrics.p99_ms() or 0.0,
        cold_p99_ms=cold_p99,
        requests=metrics.count(),
        failed=kinds.get("failed", 0),
        start_kinds=kinds,
        reroutes=router.stats.reroutes if router is not None else 0,
        pulls=router.stats.pulls if router is not None else 0,
        interconnect_mb=(
            router.interconnect.total_bytes / (1 << 20)
            if router is not None
            else 0.0
        ),
    )


def run_federated(config: ClusterScaleConfig, rps: float) -> ClusterScaleRow:
    router: ClusterRouter = build_federation(
        config.pod_count,
        topology=_topology(config, config.nodes_per_pod),
        porter_config=_porter_config(config),
        router_config=RouterConfig(
            link=config.link, replication=config.replication
        ),
        device_gbps=config.device_gbps,
    )
    pods = router.membership.pods()
    for i, fn in enumerate(config.functions):
        router.register_function(fn)
        # Home each function on one pod: locality is earned by routing and
        # replication, not handed out for free on every pod.
        router.prewarm(fn, home=pods[i % len(pods)].name)
    router.run(_trace(config, rps))
    audit = audit_federation(router)
    if not audit.clean:
        raise CheckFailure(f"cluster-scale at {rps:g} RPS: {audit.describe()}")
    return _row_from(
        router.merged_metrics(),
        arm="federated",
        config=config,
        rps=rps,
        router=router,
    )


def run_single_pod(config: ClusterScaleConfig, rps: float) -> ClusterScaleRow:
    node_count = config.pod_count * config.nodes_per_pod
    fabric, nodes = _topology(config, node_count).build()
    fabric.bandwidth = BandwidthTracker(capacity_gbps=config.device_gbps)
    porter_config = _porter_config(config)
    cxlfs = CxlFileSystem(fabric) if config.mechanism == "criu-cxl" else None
    porter = CxlPorter(nodes, fabric, config=porter_config, cxlfs=cxlfs)
    for i, fn in enumerate(config.functions):
        porter.register_function(fn)
        porter.prewarm_and_checkpoint(fn, node=nodes[i % len(nodes)])
    metrics = porter.run(_trace(config, rps))
    return _row_from(metrics, arm="single-pod", config=config, rps=rps)


def points(config: ClusterScaleConfig) -> list:
    """The RPS × arm grid as self-contained points (serial row order:
    single-pod then federated at each RPS, ascending RPS)."""
    return [
        SweepPoint.make("cluster-scale", arm=arm, rps=rps, config=config)
        for rps in config.rps_list
        for arm in ("single-pod", "federated")
    ]


def run_point(point: SweepPoint) -> ClusterScaleRow:
    """One (arm, RPS) campaign on freshly built pods (picklable worker)."""
    config = point.param("config")
    rps = point.param("rps")
    if point.param("arm") == "single-pod":
        return run_single_pod(config, rps)
    return run_federated(config, rps)


def summarize(rows: list) -> dict:
    """The rows plus their headline, so the bench digest records the
    federated-vs-single-pod verdict and any change to it fails bench."""
    return {"rows": rows, "summary": headline(rows)}


def gates(result: dict, quick: bool) -> list:
    """At peak load the federation's cold-start P99 beats the single pod's
    (§8).  The quick shape's two pods at 80 RPS barely load the device
    (9.73 vs 9.74 ms), so it is checked at the full shape only.  Each
    federated point also audits frame ownership (see :func:`run_federated`)."""
    if quick:
        return []
    s = result["summary"]
    return failed("cluster-scale", [
        (s["federated_wins_cold_p99_at_peak"],
         f"federated cold P99 {s['peak_fed_cold_p99_ms']} ms does not beat the "
         f"single pod's {s['peak_single_cold_p99_ms']} ms at {s['peak_rps']:g} RPS"),
    ])


def headline(rows: list) -> dict:
    """Federated-vs-single ratios per RPS + the headline at peak load."""
    summary: dict = {}
    by_rps: dict[float, dict] = {}
    for row in rows:
        by_rps.setdefault(row.rps, {})[row.arm] = row
    for rps in sorted(by_rps):
        arms = by_rps[rps]
        fed, single = arms.get("federated"), arms.get("single-pod")
        if fed is None or single is None:
            continue
        tag = f"rps{int(rps)}"
        if single.p99_ms:
            summary[f"{tag}_fed_p99_vs_single"] = fed.p99_ms / single.p99_ms
        if fed.cold_p99_ms and single.cold_p99_ms:
            summary[f"{tag}_fed_cold_p99_vs_single"] = (
                fed.cold_p99_ms / single.cold_p99_ms
            )
    peak = max(by_rps)
    fed, single = by_rps[peak].get("federated"), by_rps[peak].get("single-pod")
    if fed is not None and single is not None:
        summary["peak_rps"] = peak
        summary["peak_fed_cold_p99_ms"] = fed.cold_p99_ms
        summary["peak_single_cold_p99_ms"] = single.cold_p99_ms
        summary["federated_wins_cold_p99_at_peak"] = bool(
            fed.cold_p99_ms is not None
            and single.cold_p99_ms is not None
            and fed.cold_p99_ms < single.cold_p99_ms
        )
    return summary


def format_rows(result: dict) -> str:
    lines = [
        f"{'arm':<11} {'pods':>4} {'n/pod':>5} {'rps':>5} {'p50(ms)':>8} "
        f"{'p99(ms)':>8} {'cold-p99':>9} {'n':>5} {'fail':>4} "
        f"{'pulls':>5} {'wire(MB)':>8}"
    ]
    for row in result["rows"]:
        cold = f"{row.cold_p99_ms:.1f}" if row.cold_p99_ms is not None else "-"
        lines.append(
            f"{row.arm:<11} {row.pods:>4} {row.nodes_per_pod:>5} "
            f"{int(row.rps):>5} {row.p50_ms:>8.1f} {row.p99_ms:>8.1f} "
            f"{cold:>9} {row.requests:>5} {row.failed:>4} "
            f"{row.pulls:>5} {row.interconnect_mb:>8.1f}"
        )
    return "\n".join(lines) + "\n\n" + format_summary(result["summary"])
