"""Inter-pod interconnect: the cost model for crossing pod boundaries.

Inside a pod, CXL makes remote memory a load away — hundreds of
nanoseconds (:mod:`repro.cxl.latency`).  Between pods there is no shared
fabric: checkpoint images move over RDMA or Ethernet, paying microseconds
of propagation, per-transfer setup, and *serialized* use of a
bandwidth-limited link.  The three-orders-of-magnitude gap between these
two regimes is the whole reason the cluster layer treats "route to the
data" and "ship the data" as different decisions (Aquifer's two-tier
design; MITOSIS pays the wire on every remote fork).

Links model contention as a FIFO pipe: a transfer that arrives while the
link is busy queues behind the in-flight bytes, so concurrent replications
between the same pod pair stretch each other deterministically.  Each
ordered pod pair gets its own simplex link (full-duplex fabrics carry
A→B and B→A traffic independently).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.telemetry import TRACE

#: 1 GB/s == 1 B/ns, matching repro.cxl.latency's convention.
_BYTES_PER_NS_PER_GBPS = 1.0


@dataclass(frozen=True)
class LinkSpec:
    """Static parameters of one inter-pod link technology."""

    kind: str
    #: One-way propagation + NIC/switch traversal for the first byte.
    latency_ns: float
    #: Sustained point-to-point bandwidth.
    bandwidth_gbps: float
    #: Per-transfer setup (QP doorbell / socket + syscall overheads).
    setup_ns: float

    def __post_init__(self) -> None:
        if self.bandwidth_gbps <= 0:
            raise ValueError(f"{self.kind}: bandwidth must be positive")
        if self.latency_ns < 0 or self.setup_ns < 0:
            raise ValueError(f"{self.kind}: negative latency/setup")

    def serialization_ns(self, nbytes: int) -> float:
        """Time the link is occupied transmitting ``nbytes``."""
        return nbytes / (self.bandwidth_gbps * _BYTES_PER_NS_PER_GBPS)


#: 100 Gb/s RDMA (RoCE/IB): ~2 us one-way, cheap posted sends.  The
#: MITOSIS numbers (§"No Provisioned Concurrency"): remote fork dominated
#: by wire time, not software.
RDMA = LinkSpec(kind="rdma", latency_ns=2_000.0, bandwidth_gbps=12.5, setup_ns=600.0)

#: 25 GbE with a kernel network stack: tens of us one-way, per-transfer
#: syscall + TCP costs an order of magnitude above RDMA's.
ETHERNET = LinkSpec(
    kind="ethernet", latency_ns=30_000.0, bandwidth_gbps=3.0, setup_ns=15_000.0
)

_PRESETS = {"rdma": RDMA, "ethernet": ETHERNET}


def link_spec(kind: "str | LinkSpec") -> LinkSpec:
    """Resolve a preset name (or pass a spec through)."""
    if isinstance(kind, LinkSpec):
        return kind
    spec = _PRESETS.get(kind)
    if spec is None:
        raise KeyError(f"unknown link kind {kind!r}; known: {sorted(_PRESETS)}")
    return spec


class InterPodLink:
    """One simplex link with FIFO bandwidth contention.

    ``transfer_ns(nbytes, now)`` returns the *completion delay* from
    ``now``: queueing behind in-flight transfers + setup + serialization +
    propagation.  State advances, so calls must be made in virtual-time
    order (the event queue guarantees that).
    """

    def __init__(self, src: str, dst: str, spec: LinkSpec) -> None:
        self.src = src
        self.dst = dst
        self.spec = spec
        #: Virtual time the link finishes its last queued transmission.
        self.busy_until_ns = 0
        self.transfers = 0
        self.bytes_sent = 0

    def transfer_ns(self, nbytes: int, *, now: int) -> int:
        """Delay from ``now`` until ``nbytes`` fully land at the far end."""
        if nbytes < 0:
            raise ValueError(f"negative transfer size: {nbytes}")
        start = max(int(now), self.busy_until_ns)
        occupancy = self.spec.setup_ns + self.spec.serialization_ns(nbytes)
        self.busy_until_ns = start + int(occupancy)
        self.transfers += 1
        self.bytes_sent += nbytes
        done = self.busy_until_ns + int(self.spec.latency_ns)
        if TRACE.active():
            TRACE.count("cluster.link_transfers")
            TRACE.count("cluster.link_bytes", nbytes)
            queued = start - int(now)
            if queued > 0:
                TRACE.observe("cluster.link_queue_ns", queued)
        return done - int(now)


class Interconnect:
    """Full mesh of inter-pod links, created lazily per ordered pair."""

    def __init__(self, spec: "str | LinkSpec" = "rdma") -> None:
        self.spec = link_spec(spec)
        self._links: dict[tuple, InterPodLink] = {}

    def link(self, src: str, dst: str) -> InterPodLink:
        if src == dst:
            raise ValueError(f"no self-link: {src!r} -> {dst!r}")
        key = (src, dst)
        found = self._links.get(key)
        if found is None:
            found = InterPodLink(src, dst, self.spec)
            self._links[key] = found
        return found

    def transfer_ns(self, src: str, dst: str, nbytes: int, *, now: int) -> int:
        return self.link(src, dst).transfer_ns(nbytes, now=now)

    @property
    def total_bytes(self) -> int:
        return sum(link.bytes_sent for link in self._links.values())


__all__ = [
    "ETHERNET",
    "Interconnect",
    "InterPodLink",
    "LinkSpec",
    "RDMA",
    "link_spec",
]
