"""The shared root file system.

Like the paper (and CRIU/Mitosis before it), we assume every node sees an
identical root file system — the container-image guarantee — so a file
*path* checkpointed on one node resolves on any other (§4.1).  Inode numbers
are node-independent here because the FS object itself is shared; what
matters is that descriptors are re-resolved by path on restore, never by
pointer.
"""

from __future__ import annotations

import itertools
import posixpath
from dataclasses import dataclass


@dataclass
class Inode:
    """A file's identity and size (contents are not modeled)."""

    ino: int
    path: str
    size_bytes: int = 0
    is_dir: bool = False
    mode: int = 0o644


class SharedRootFs:
    """A pod-wide identical root file system (the container image)."""

    def __init__(self, name: str = "rootfs") -> None:
        self.name = name
        self._inodes: dict[str, Inode] = {}
        self._next_ino = itertools.count(2)  # 1 is the root
        root = Inode(ino=1, path="/", is_dir=True, mode=0o755)
        self._inodes["/"] = root

    @staticmethod
    def _normalize(path: str) -> str:
        if not path.startswith("/"):
            raise ValueError(f"paths must be absolute: {path!r}")
        return posixpath.normpath(path)

    def create(self, path: str, size_bytes: int = 0, *, is_dir: bool = False) -> Inode:
        """Create a file (and its parent directories)."""
        path = self._normalize(path)
        if path in self._inodes:
            raise FileExistsError(path)
        parent = posixpath.dirname(path)
        if parent not in self._inodes:
            self.create(parent, is_dir=True)
        inode = Inode(
            ino=next(self._next_ino),
            path=path,
            size_bytes=size_bytes,
            is_dir=is_dir,
            mode=0o755 if is_dir else 0o644,
        )
        self._inodes[path] = inode
        return inode

    def lookup(self, path: str) -> Inode:
        path = self._normalize(path)
        inode = self._inodes.get(path)
        if inode is None:
            raise FileNotFoundError(path)
        return inode

    def exists(self, path: str) -> bool:
        return self._normalize(path) in self._inodes

    def ensure(self, path: str, size_bytes: int = 0) -> Inode:
        """Lookup-or-create (library images are created on first reference)."""
        path = self._normalize(path)
        if path in self._inodes:
            return self._inodes[path]
        return self.create(path, size_bytes=size_bytes)


__all__ = ["Inode", "SharedRootFs"]
