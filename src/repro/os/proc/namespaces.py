"""Namespaces.

CXLfork checkpoints only mount points and PID namespaces; network, user,
and the rest are *reconfigurable* state inherited from the process that
invokes the restore on the new node (§4.1-§4.2) — that is what lets a
checkpoint be restored straight into a fresh container.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

_ns_ids = itertools.count(1)


@dataclass
class PidNamespace:
    """A PID namespace: an id allocator scoped to a container/node."""

    name: str = "init_pid_ns"
    ns_id: int = field(default_factory=lambda: next(_ns_ids))
    _next_pid: int = 1

    def alloc_pid(self) -> int:
        pid = self._next_pid
        self._next_pid += 1
        return pid

    def snapshot(self) -> dict:
        """Checkpointable description."""
        return {"name": self.name, "next_pid": self._next_pid}

    @classmethod
    def from_snapshot(cls, snap: dict) -> "PidNamespace":
        ns = cls(name=snap["name"])
        ns._next_pid = snap["next_pid"]
        return ns


@dataclass
class MountNamespace:
    """Mount namespace: a set of (mountpoint, source) pairs."""

    name: str = "init_mnt_ns"
    ns_id: int = field(default_factory=lambda: next(_ns_ids))
    mounts: dict = field(default_factory=lambda: {"/": "rootfs"})

    def mount(self, mountpoint: str, source: str) -> None:
        self.mounts[mountpoint] = source

    def snapshot(self) -> dict:
        return {"name": self.name, "mounts": dict(self.mounts)}

    @classmethod
    def from_snapshot(cls, snap: dict) -> "MountNamespace":
        return cls(name=snap["name"], mounts=dict(snap["mounts"]))


@dataclass
class NetworkNamespace:
    """Network namespace — reconfigurable, never checkpointed."""

    name: str = "init_net_ns"
    ns_id: int = field(default_factory=lambda: next(_ns_ids))


@dataclass
class NamespaceSet:
    """The namespaces a task runs in."""

    pid: PidNamespace = field(default_factory=PidNamespace)
    mnt: MountNamespace = field(default_factory=MountNamespace)
    net: NetworkNamespace = field(default_factory=NetworkNamespace)

    def checkpointable(self) -> dict:
        """Only pid + mnt are carried through a checkpoint (§4.1)."""
        return {"pid": self.pid.snapshot(), "mnt": self.mnt.snapshot()}

    @classmethod
    def restore_into(cls, snap: dict, inherit_from: "NamespaceSet") -> "NamespaceSet":
        """Rebuild pid/mnt from a checkpoint, inherit the rest (§4.2)."""
        return cls(
            pid=PidNamespace.from_snapshot(snap["pid"]),
            mnt=MountNamespace.from_snapshot(snap["mnt"]),
            net=inherit_from.net,
        )


__all__ = ["PidNamespace", "MountNamespace", "NetworkNamespace", "NamespaceSet"]
