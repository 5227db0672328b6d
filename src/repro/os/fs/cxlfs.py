"""An in-CXL-memory file system.

This is the CRIU-CXL substrate from §6.2: "we create an in-CXL-memory
filesystem which we share between the two VMs.  The first VM serializes
checkpoint files on the shared filesystem, which the second VM deserializes
to clone a new function instance."  Files occupy CXL frames; writes are
charged at CXL store bandwidth and reads at CXL load bandwidth by the
callers (the CRIU mechanism), using sizes this FS reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cxl.fabric import CxlFabric
from repro.sim.units import bytes_to_pages


@dataclass
class CxlFile:
    """One file resident in CXL memory."""

    path: str
    size_bytes: int
    frames: np.ndarray

    @property
    def npages(self) -> int:
        return int(self.frames.size)


class CxlFileSystem:
    """A flat, shared file namespace backed by CXL frames."""

    def __init__(self, fabric: CxlFabric, name: str = "cxlfs") -> None:
        self.fabric = fabric
        self.name = name
        self._files: dict[str, CxlFile] = {}

    def write_file(self, path: str, size_bytes: int) -> CxlFile:
        """Create (or replace) a file of ``size_bytes``; allocates frames."""
        if size_bytes < 0:
            raise ValueError(f"negative file size: {size_bytes}")
        if path in self._files:
            self.unlink(path)
        frames = self.fabric.alloc_frames(bytes_to_pages(size_bytes))
        file = CxlFile(path=path, size_bytes=size_bytes, frames=frames)
        self._files[path] = file
        return file

    def stat(self, path: str) -> CxlFile:
        file = self._files.get(path)
        if file is None:
            raise FileNotFoundError(path)
        return file

    def exists(self, path: str) -> bool:
        return path in self._files

    def unlink(self, path: str) -> None:
        file = self._files.pop(path)
        if file.frames.size:
            self.fabric.put_frames(file.frames)

    def listdir(self, prefix: str = "") -> list:
        return sorted(p for p in self._files if p.startswith(prefix))

    def __len__(self) -> int:
        return len(self._files)


__all__ = ["CxlFile", "CxlFileSystem"]
