"""repro.cluster — federating CXL pods into one serving cluster (§8).

A pod is the unit CXL builds: one memory device, a handful of cabled
nodes, sub-microsecond loads.  A *cluster* is many pods with no shared
fabric between them — crossing a pod boundary means RDMA or Ethernet,
three orders of magnitude slower.  This package layers the paper's §8
outlook over the per-pod machinery:

* :mod:`~repro.cluster.interconnect` — the inter-pod cost model (links,
  bandwidth contention, control RTTs);
* :mod:`~repro.cluster.replication` — portable checkpoint images shipped
  between pods' object stores and re-materialized (re-rebased) on arrival;
* :mod:`~repro.cluster.membership` — pods as failure domains;
* :mod:`~repro.cluster.router` — the global two-level scheduler routing
  each invocation to a pod by locality, load, and free CXL capacity.

:func:`build_federation` assembles all of it around one shared event
queue so every pod's porter interleaves on a single virtual timeline.
"""

from __future__ import annotations

from typing import Optional

from repro.cluster.interconnect import (
    ETHERNET,
    RDMA,
    Interconnect,
    InterPodLink,
    LinkSpec,
    link_spec,
)
from repro.cluster.membership import PodHandle, PodMembership
from repro.cluster.replication import (
    ReplicationError,
    Replicator,
    encode_image,
    materialize,
    shipped_bytes,
    wire_image,
)
from repro.cluster.router import ClusterRouter, RouterConfig, RoutingStats
from repro.cxl.bandwidth import BandwidthTracker
from repro.cxl.topology import PodTopology
from repro.os.fs.cxlfs import CxlFileSystem
from repro.porter.autoscaler import CxlPorter, PorterConfig
from repro.sim.events import EventQueue


def build_federation(
    pod_count: int,
    *,
    topology: Optional[PodTopology] = None,
    porter_config: Optional[PorterConfig] = None,
    router_config: Optional[RouterConfig] = None,
    device_gbps: Optional[float] = None,
    queue: Optional[EventQueue] = None,
) -> ClusterRouter:
    """Build ``pod_count`` identical pods federated under one router.

    Every pod gets its own fabric instantiated from ``topology`` (the
    paper testbed by default), its own CXLporter sharing the router's
    event queue, and — when ``device_gbps`` is set — its own
    :class:`BandwidthTracker`, so load concentrated on one pod inflates
    only that pod's CXL latency.
    """
    if pod_count < 1:
        raise ValueError(f"pod_count must be >= 1, got {pod_count}")
    topology = topology or PodTopology.paper_testbed()
    porter_config = porter_config or PorterConfig()
    queue = queue or EventQueue()
    pods = []
    for i in range(pod_count):
        fabric, nodes = topology.build()
        if device_gbps is not None:
            fabric.bandwidth = BandwidthTracker(capacity_gbps=device_gbps)
        cxlfs = (
            CxlFileSystem(fabric)
            if porter_config.mechanism == "criu-cxl"
            else None
        )
        pod = PodHandle(f"pod{i}", fabric, nodes, cxlfs=cxlfs)
        pod.porter = CxlPorter(
            nodes, fabric, config=porter_config, cxlfs=cxlfs, queue=queue
        )
        pods.append(pod)
    return ClusterRouter(pods, queue, config=router_config)


__all__ = [
    "ETHERNET",
    "RDMA",
    "BandwidthTracker",
    "ClusterRouter",
    "Interconnect",
    "InterPodLink",
    "LinkSpec",
    "PodHandle",
    "PodMembership",
    "ReplicationError",
    "Replicator",
    "RouterConfig",
    "RoutingStats",
    "build_federation",
    "encode_image",
    "link_spec",
    "materialize",
    "shipped_bytes",
    "wire_image",
]
