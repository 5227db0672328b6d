"""Open-file descriptors.

This is *global* state in the paper's taxonomy (§4.1): the table entries
point at kernel-global structures (inodes), so they cannot be checkpointed
as-is — CXLfork serializes paths/flags/offsets and re-opens on restore.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional


class FileKind(enum.Enum):
    REGULAR = "regular"
    SOCKET = "socket"
    PIPE = "pipe"
    EVENTFD = "eventfd"


@dataclass(frozen=True)
class OpenFile:
    """One open descriptor: what CXLfork needs to re-instantiate it."""

    fd: int
    path: str
    kind: FileKind = FileKind.REGULAR
    flags: int = 0
    offset: int = 0
    #: Simulated inode the descriptor currently resolves to (node-local;
    #: never checkpointed — re-resolved on restore).
    inode: Optional[int] = None


class FdTable:
    """A process's descriptor table."""

    #: fds 0-2 are stdio; allocation starts above them.
    FIRST_USER_FD = 3

    def __init__(self) -> None:
        self._files: dict[int, OpenFile] = {}
        self._next_fd = self.FIRST_USER_FD

    def __len__(self) -> int:
        return len(self._files)

    def __iter__(self):
        return iter(sorted(self._files.values(), key=lambda f: f.fd))

    def open(
        self,
        path: str,
        *,
        kind: FileKind = FileKind.REGULAR,
        flags: int = 0,
        inode: Optional[int] = None,
    ) -> OpenFile:
        fd = self._next_fd
        self._next_fd += 1
        entry = OpenFile(fd=fd, path=path, kind=kind, flags=flags, inode=inode)
        self._files[fd] = entry
        return entry

    def install(self, entry: OpenFile) -> None:
        """Install a descriptor at its recorded number (restore path)."""
        if entry.fd in self._files:
            raise ValueError(f"fd {entry.fd} already open")
        self._files[entry.fd] = entry
        self._next_fd = max(self._next_fd, entry.fd + 1)

    def entries(self) -> list[OpenFile]:
        return list(self)

    def copy(self) -> "FdTable":
        dup = FdTable()
        dup._files = dict(self._files)
        dup._next_fd = self._next_fd
        return dup


__all__ = ["FdTable", "OpenFile", "FileKind"]
