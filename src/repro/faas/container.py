"""Containers and ghost containers (§5, Fig. 6).

Creating a Docker container — network, namespaces, cgroups — costs ~130 ms
irrespective of the function deployed in it, and an *empty* configured
container occupies only 512 KB.  CXLporter pre-creates such **ghost
containers** and restores functions straight into them, eliminating the
creation cost from the critical path.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from repro.os.node import ComputeNode
from repro.os.proc.cgroup import Cgroup
from repro.os.proc.namespaces import MountNamespace, NamespaceSet, NetworkNamespace, PidNamespace
from repro.sim.units import KIB, MS
from repro.telemetry import TRACE

#: Container creation latency (network + namespaces + cgroups), §5 / Fig. 6.
CONTAINER_CREATE_NS = 130.0 * MS
#: Memory held by a bare configured container.
GHOST_CONTAINER_BYTES = 512 * KIB
#: Waking a ghost container through its control socket to issue a restore.
GHOST_TRIGGER_NS = 1.0 * MS

_container_ids = itertools.count(1)


@dataclass
class Container:
    """A sandbox on one node."""

    node: ComputeNode
    function_name: str
    container_id: int = field(default_factory=lambda: next(_container_ids))
    namespaces: NamespaceSet = field(default_factory=NamespaceSet)
    cgroup: Optional[Cgroup] = None
    is_ghost: bool = False
    destroyed: bool = False

    def __post_init__(self) -> None:
        if self.cgroup is None:
            self.cgroup = Cgroup(name=f"ctr{self.container_id}")

    def destroy(self) -> None:
        self.destroyed = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        flavor = "ghost" if self.is_ghost else "full"
        return f"Container(id={self.container_id}, fn={self.function_name!r}, {flavor})"


class GhostContainer(Container):
    """An empty, pre-configured container awaiting a function restore."""

    def __init__(self, node: ComputeNode, function_name: str) -> None:
        super().__init__(node=node, function_name=function_name, is_ghost=True)
        self.occupied = False

    def trigger(self) -> float:
        """Wake the control socket; returns the latency to charge."""
        if self.occupied:
            raise RuntimeError(f"{self!r} already hosts a function")
        self.occupied = True
        return GHOST_TRIGGER_NS

    def release(self) -> None:
        """The hosted function exited; the ghost is reusable."""
        self.occupied = False


class ContainerFactory:
    """Creates containers on a node, charging creation time."""

    def __init__(self, node: ComputeNode) -> None:
        self.node = node

    def create(self, function_name: str, *, charge: bool = True) -> Container:
        """A full container, paying the ~130 ms creation cost."""
        with TRACE.span(
            "faas.container_create", clock=self.node.clock, function=function_name
        ):
            container = Container(
                node=self.node,
                function_name=function_name,
                namespaces=NamespaceSet(
                    pid=PidNamespace(name=f"{function_name}_pid"),
                    mnt=MountNamespace(name=f"{function_name}_mnt"),
                    net=NetworkNamespace(name=f"{function_name}_net"),
                ),
            )
            if charge:
                self.node.clock.advance(CONTAINER_CREATE_NS)
        return container


__all__ = [
    "Container",
    "GhostContainer",
    "ContainerFactory",
    "CONTAINER_CREATE_NS",
    "GHOST_CONTAINER_BYTES",
    "GHOST_TRIGGER_NS",
]
