"""Checkpoint record schemas (the CRIU image types).

Each record is a dataclass with ``to_wire()``/``from_wire()`` converting to
plain codec-encodable values.  CRIU-CXL serializes *all* of these plus raw
page data; Mitosis serializes the OS-state records (mm, vmas, pagemaps);
CXLfork serializes only the global-state subset (fds, namespaces, mounts).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.os.proc.fdtable import FileKind, OpenFile
from repro.os.proc.regs import RegisterFile
from repro.os.proc.task import Task
from repro.os.mm.vma import Vma, VmaKind, VmaPerms


@dataclass(frozen=True)
class RegsRecord:
    """CPU context image."""

    rip: int
    rflags: int
    gp: dict
    fpu_state_bytes: int

    @classmethod
    def capture(cls, regs: RegisterFile) -> "RegsRecord":
        return cls(
            rip=regs.rip,
            rflags=regs.rflags,
            gp=dict(regs.gp),
            fpu_state_bytes=regs.fpu_state_bytes,
        )

    def to_wire(self) -> dict:
        return {
            "rip": self.rip,
            "rflags": self.rflags,
            "gp": self.gp,
            # The FPU/SSE area is raw bytes in the image.
            "fpu": b"\x00" * self.fpu_state_bytes,
        }

    @classmethod
    def from_wire(cls, wire: dict) -> "RegsRecord":
        return cls(
            rip=wire["rip"],
            rflags=wire["rflags"],
            gp=dict(wire["gp"]),
            fpu_state_bytes=len(wire["fpu"]),
        )

    def restore_into(self) -> RegisterFile:
        return RegisterFile(
            rip=self.rip,
            rflags=self.rflags,
            gp=dict(self.gp),
            fpu_state_bytes=self.fpu_state_bytes,
        )


@dataclass(frozen=True)
class FdRecord:
    """One open descriptor image (path-based, node-portable)."""

    fd: int
    path: str
    kind: str
    flags: int
    offset: int

    @classmethod
    def capture(cls, entry: OpenFile) -> "FdRecord":
        return cls(
            fd=entry.fd,
            path=entry.path,
            kind=entry.kind.value,
            flags=entry.flags,
            offset=entry.offset,
        )

    def to_wire(self) -> dict:
        return {"fd": self.fd, "path": self.path, "kind": self.kind,
                "flags": self.flags, "offset": self.offset}

    @classmethod
    def from_wire(cls, wire: dict) -> "FdRecord":
        return cls(**wire)

    def reopen(self) -> OpenFile:
        """The descriptor as re-instantiated on the restoring node."""
        return OpenFile(
            fd=self.fd,
            path=self.path,
            kind=FileKind(self.kind),
            flags=self.flags,
            offset=self.offset,
        )


@dataclass(frozen=True)
class VmaRecord:
    """One VMA image."""

    start_vpn: int
    npages: int
    perms: int
    kind: str
    path: Optional[str]
    file_offset_pages: int
    label: str

    @classmethod
    def capture(cls, vma: Vma) -> "VmaRecord":
        return cls(
            start_vpn=vma.start_vpn,
            npages=vma.npages,
            perms=int(vma.perms),
            kind=vma.kind.value,
            path=vma.path,
            file_offset_pages=vma.file_offset_pages,
            label=vma.label,
        )

    def to_wire(self) -> dict:
        return {
            "start_vpn": self.start_vpn,
            "npages": self.npages,
            "perms": self.perms,
            "kind": self.kind,
            "path": self.path,
            "file_offset_pages": self.file_offset_pages,
            "label": self.label,
        }

    @classmethod
    def from_wire(cls, wire: dict) -> "VmaRecord":
        return cls(**wire)

    def rebuild(self, *, file_registered: bool = True) -> Vma:
        return Vma(
            start_vpn=self.start_vpn,
            npages=self.npages,
            perms=VmaPerms(self.perms),
            kind=VmaKind(self.kind),
            path=self.path,
            file_offset_pages=self.file_offset_pages,
            label=self.label,
            file_registered=file_registered,
        )


@dataclass(frozen=True)
class PagemapRecord:
    """A run of present pages: where they live in the image/shadow."""

    start_vpn: int
    npages: int
    #: Flag bits of the first PTE in the run (runs are split on flag change).
    flags: int

    def to_wire(self) -> dict:
        return {"start_vpn": self.start_vpn, "npages": self.npages, "flags": self.flags}

    @classmethod
    def from_wire(cls, wire: dict) -> "PagemapRecord":
        return cls(**wire)


@dataclass(frozen=True)
class NamespaceRecord:
    """PID + mount namespaces (the checkpointable subset, §4.1)."""

    pid_ns: dict
    mnt_ns: dict

    @classmethod
    def capture(cls, task: Task) -> "NamespaceRecord":
        snap = task.namespaces.checkpointable()
        return cls(pid_ns=snap["pid"], mnt_ns=snap["mnt"])

    def to_wire(self) -> dict:
        return {"pid_ns": self.pid_ns, "mnt_ns": self.mnt_ns}

    @classmethod
    def from_wire(cls, wire: dict) -> "NamespaceRecord":
        return cls(**wire)


@dataclass(frozen=True)
class MmRecord:
    """Address-space summary for the mm image."""

    vma_count: int
    mapped_pages: int

    def to_wire(self) -> dict:
        return {"vma_count": self.vma_count, "mapped_pages": self.mapped_pages}

    @classmethod
    def from_wire(cls, wire: dict) -> "MmRecord":
        return cls(**wire)


@dataclass(frozen=True)
class TaskRecord:
    """The top-level process image."""

    comm: str
    pid: int
    regs: RegsRecord
    fds: tuple
    namespaces: NamespaceRecord
    mm: MmRecord

    def to_wire(self) -> dict:
        return {
            "comm": self.comm,
            "pid": self.pid,
            "regs": self.regs.to_wire(),
            "fds": [f.to_wire() for f in self.fds],
            "ns": self.namespaces.to_wire(),
            "mm": self.mm.to_wire(),
        }

    @classmethod
    def from_wire(cls, wire: dict) -> "TaskRecord":
        return cls(
            comm=wire["comm"],
            pid=wire["pid"],
            regs=RegsRecord.from_wire(wire["regs"]),
            fds=tuple(FdRecord.from_wire(f) for f in wire["fds"]),
            namespaces=NamespaceRecord.from_wire(wire["ns"]),
            mm=MmRecord.from_wire(wire["mm"]),
        )


def task_to_records(task: Task) -> TaskRecord:
    """Capture the serializable process image of a (frozen) task."""
    return TaskRecord(
        comm=task.comm,
        pid=task.pid,
        regs=RegsRecord.capture(task.regs),
        fds=tuple(FdRecord.capture(f) for f in task.fdtable),
        namespaces=NamespaceRecord.capture(task),
        mm=MmRecord(
            vma_count=len(task.mm.vmas),
            mapped_pages=task.mm.mapped_pages(),
        ),
    )


def vma_records(task: Task) -> list:
    """Per-VMA images for a task."""
    return [VmaRecord.capture(v) for v in task.mm.vmas]


def pagemap_records(task: Task) -> list:
    """Runs of present pages, split on flag changes (CRIU's pagemap.img)."""
    import numpy as np

    from repro.os.mm.pagetable import PTES_PER_LEAF
    from repro.os.mm.pte import PTE_FLAG_MASK, PteFlags

    vpn_chunks: list[np.ndarray] = []
    flag_chunks: list[np.ndarray] = []
    for leaf_index, leaf in task.mm.pagetable.leaves():
        present = (leaf.ptes & np.int64(int(PteFlags.PRESENT))) != 0
        idx = np.nonzero(present)[0]
        if idx.size == 0:
            continue
        vpn_chunks.append(leaf_index * PTES_PER_LEAF + idx)
        flag_chunks.append((leaf.ptes[idx] & np.int64(PTE_FLAG_MASK)).astype(np.int64))
    if not vpn_chunks:
        return []
    vpns = np.concatenate(vpn_chunks)
    flags = np.concatenate(flag_chunks)
    # A new run starts where vpns are non-consecutive or flags change.
    breaks = np.empty(vpns.size, dtype=bool)
    breaks[0] = True
    breaks[1:] = (np.diff(vpns) != 1) | (flags[1:] != flags[:-1])
    starts = np.nonzero(breaks)[0]
    ends = np.append(starts[1:], vpns.size)
    return [
        PagemapRecord(int(vpns[s]), int(e - s), int(flags[s]))
        for s, e in zip(starts, ends)
    ]


__all__ = [
    "RegsRecord",
    "FdRecord",
    "VmaRecord",
    "PagemapRecord",
    "NamespaceRecord",
    "MmRecord",
    "TaskRecord",
    "task_to_records",
    "vma_records",
    "pagemap_records",
]
