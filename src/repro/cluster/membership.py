"""Pod membership: pods as failure domains of the federated cluster.

A pod — one CXL device plus the nodes cabled to it — is the blast radius
of a fabric failure (§3.1 treats the device as the shared fate domain; a
node crash loses nothing, a device crash loses the pod).  The federation
layer therefore reasons about *pods* the way a pod's CXLporter reasons
about *nodes*: a failed pod stops being a routing target.
"""

from __future__ import annotations

import itertools


class PodHandle:
    """One pod as seen by the federation: identity, resources, health."""

    def __init__(self, name: str, fabric, nodes: list, *, cxlfs=None,
                 porter=None) -> None:
        self.name = name
        self.fabric = fabric
        self.nodes = list(nodes)
        self.cxlfs = cxlfs
        #: The pod's CXLporter deployment (set after construction when the
        #: porter is built around the handle).
        self.porter = porter
        #: Whole-pod failure (CXL device power loss), distinct from all
        #: nodes happening to crash individually.
        self._device_failed = False
        self._replica_ids = itertools.count(1)

    # -- health -----------------------------------------------------------------

    @property
    def failed(self) -> bool:
        """The pod can serve nothing: device gone or every node down."""
        return self._device_failed or all(n.failed for n in self.nodes)

    @property
    def poison_rate(self) -> float:
        """Fraction of the pod's shared CXL pool lost or losing to poison.

        The shared device is what checkpoints (and thus every fork served
        from this pod) live in, so pod-level decay is measured there, not
        on per-node DRAM.
        """
        return self.fabric.device.frames.poison_rate

    # -- failure injection ------------------------------------------------------

    def fail(self) -> None:
        """Fabric-level failure: the device and everything on it is gone."""
        self._device_failed = True
        for node in self.nodes:
            if not node.failed:
                node.fail()

    # -- resources the router weighs --------------------------------------------

    @property
    def store(self):
        return self.porter.store

    def running(self) -> int:
        """Instances executing right now across the pod's nodes."""
        return sum(getattr(n, "_porter_running", 0) for n in self.nodes)

    def free_cxl_bytes(self) -> int:
        return self.fabric.free_bytes

    def next_image_id(self, comm: str) -> str:
        """Local image id for a materialized replica (never on the wire)."""
        return f"{comm}@{self.name}-r{next(self._replica_ids)}"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"PodHandle({self.name!r}, nodes={len(self.nodes)})"


class PodMembership:
    """Join/leave/fail tracking for the cluster's pods."""

    def __init__(self) -> None:
        self._pods: dict[str, PodHandle] = {}

    # -- membership -------------------------------------------------------------

    def join(self, pod: PodHandle) -> PodHandle:
        if pod.name in self._pods:
            raise ValueError(f"pod {pod.name!r} already joined")
        self._pods[pod.name] = pod
        return pod

    # -- views ------------------------------------------------------------------

    def pods(self) -> list:
        """All members, join order (deterministic)."""
        return list(self._pods.values())

    def pod(self, name: str) -> PodHandle:
        return self._pods[name]

    def live_pods(self) -> list:
        """Pods the router may target: the ones not failed."""
        return [p for p in self._pods.values() if not p.failed]


__all__ = ["PodHandle", "PodMembership"]
