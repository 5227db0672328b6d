"""The common checkpoint/restore interface all mechanisms implement."""

from __future__ import annotations

import abc
from dataclasses import dataclass, field, replace
from typing import Any, Optional

from repro.os.node import ComputeNode
from repro.os.proc.namespaces import NamespaceSet
from repro.os.proc.task import Task
from repro.sim.units import PAGE_SIZE

#: Cost of creating the process that will call <mechanism>-restore on the
#: target node (clone + basic setup inside an existing container).
PROC_CREATE_NS = 500_000.0
#: Re-opening one file descriptor by path on the restoring node.
FD_REOPEN_NS = 20_000.0
#: Restoring mount points + the PID namespace.
NS_RESTORE_NS = 300_000.0
#: One mmap() call while rebuilding an address space (CRIU/Mitosis restore).
MMAP_SYSCALL_NS = 3_000.0


@dataclass
class CheckpointMetrics:
    """What taking a checkpoint cost and where the state landed."""

    latency_ns: float = 0.0
    cxl_bytes: int = 0
    local_shadow_bytes: int = 0
    serialized_bytes: int = 0
    breakdown: dict[str, float] = field(default_factory=dict)
    #: Open telemetry span mirroring the breakdown as phase child spans
    #: (set by the mechanism while tracing is enabled; see repro.telemetry).
    span: Any = field(default=None, repr=False, compare=False)

    def note(self, phase: str, ns: float) -> None:
        self.breakdown[phase] = self.breakdown.get(phase, 0.0) + ns
        self.latency_ns += ns
        if self.span is not None:
            self.span.add_phase(phase, ns)


@dataclass
class RestoreMetrics:
    """What a restore cost on its critical path (and off it)."""

    latency_ns: float = 0.0
    background_ns: float = 0.0
    prefetched_pages: int = 0
    copied_pages: int = 0
    breakdown: dict[str, float] = field(default_factory=dict)
    #: Open telemetry span mirroring the breakdown as phase child spans.
    span: Any = field(default=None, repr=False, compare=False)

    def note(self, phase: str, ns: float) -> None:
        self.breakdown[phase] = self.breakdown.get(phase, 0.0) + ns
        self.latency_ns += ns
        if self.span is not None:
            self.span.add_phase(phase, ns)


@dataclass
class RestoreResult:
    """A restored (cloned) task plus the metrics of restoring it."""

    task: Task
    metrics: RestoreMetrics


def rebuild_os_state(task: Task, node: ComputeNode, record, vmas, metrics) -> None:
    """Rebuild a deserialized process's OS state on ``node`` (CRIU/Mitosis).

    Restores registers, reopens every fd by path, restores the PID and
    mount namespaces, then recreates each VMA with an mmap call, noting
    ``fd_reopen``, ``ns_restore`` and ``vma_rebuild`` in that order.
    ``record`` is the checkpoint's ``TaskRecord``; ``vmas`` are the plan's
    rebuilt (immutable, shareable) ``Vma`` objects.
    """
    task.regs = record.regs.restore_into()
    for fd_record in record.fds:
        entry = fd_record.reopen()
        inode = node.rootfs.ensure(entry.path)
        task.fdtable.install(replace(entry, inode=inode.ino))
    metrics.note("fd_reopen", FD_REOPEN_NS * len(record.fds))
    task.namespaces = NamespaceSet.restore_into(
        {"pid": record.namespaces.pid_ns, "mnt": record.namespaces.mnt_ns},
        task.namespaces,
    )
    metrics.note("ns_restore", NS_RESTORE_NS)
    for vma in vmas:
        if vma.is_file_backed():
            node.rootfs.ensure(vma.path, size_bytes=vma.npages * PAGE_SIZE)
        task.mm.vmas.insert(vma)
        task.mm.note_range_used(vma.start_vpn, vma.npages)
    metrics.note("vma_rebuild", MMAP_SYSCALL_NS * len(vmas))


class RemoteForkMechanism(abc.ABC):
    """Checkpoint a process on one node; clone it on another."""

    #: Identifier used in experiment tables ("cxlfork", "criu-cxl", ...).
    name: str = "abstract"
    #: Whether restore can target a ghost container (CRIU-CXL cannot, §6.2).
    supports_ghost_containers: bool = True

    @abc.abstractmethod
    def checkpoint(self, task: Task) -> tuple[Any, CheckpointMetrics]:
        """Freeze ``task`` and capture its state; returns (checkpoint, metrics).

        Virtual time is charged to the *source* node's clock.
        """

    @abc.abstractmethod
    def restore(
        self,
        checkpoint: Any,
        node: ComputeNode,
        *,
        container: Optional[Any] = None,
        policy: Optional[Any] = None,
    ) -> RestoreResult:
        """Clone the checkpointed process onto ``node``.

        Virtual time is charged to the *target* node's clock.
        """

    def delete_checkpoint(self, checkpoint: Any) -> None:
        """Release the checkpoint's storage (object-store reclaim)."""
        checkpoint.delete()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}()"


__all__ = [
    "RemoteForkMechanism",
    "CheckpointMetrics",
    "RestoreMetrics",
    "RestoreResult",
    "PROC_CREATE_NS",
    "FD_REOPEN_NS",
    "NS_RESTORE_NS",
    "MMAP_SYSCALL_NS",
    "rebuild_os_state",
]
