"""A heap of checkpoint metadata living in CXL memory.

Checkpoint metadata (PTE leaves, VMA leaves, serialized global state) is
stored at *offsets* within a per-checkpoint CXL region.  The heap bump-
allocates offsets, lazily acquires CXL frames to back them, and supports
dereferencing an offset back to the stored object — which is what a
restoring node does after the pointers have been rebased
(:mod:`repro.serial.rebase`).
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.cxl.fabric import CxlFabric
from repro.sim.units import bytes_to_pages


class CxlHeap:
    """Bump allocator of byte offsets in a CXL-backed region."""

    #: Allocation granularity (cache-line).
    ALIGN = 64

    def __init__(self, fabric: CxlFabric, label: str = "ckpt-heap") -> None:
        self.fabric = fabric
        self.label = label
        self._cursor = self.ALIGN  # offset 0 is reserved as a NULL sentinel
        self._objects: dict[int, Any] = {}
        self._sizes: dict[int, int] = {}
        self._frames: Optional[np.ndarray] = None
        self._frame_count = 0
        self._released = False

    # -- allocation ----------------------------------------------------------

    def _ensure_backing(self) -> None:
        needed = bytes_to_pages(self._cursor)
        if needed <= self._frame_count:
            return
        grow = max(needed - self._frame_count, 8)
        fresh = self.fabric.alloc_frames(grow)
        if self._frames is None:
            self._frames = fresh
        else:
            self._frames = np.concatenate([self._frames, fresh])
        self._frame_count += grow

    def store(self, obj: Any, nbytes: int) -> int:
        """Store ``obj`` occupying ``nbytes``; returns its heap offset."""
        if self._released:
            raise RuntimeError(f"heap {self.label!r} already released")
        if nbytes <= 0:
            raise ValueError(f"objects must occupy at least one byte: {nbytes}")
        offset = self._cursor
        aligned = (nbytes + self.ALIGN - 1) & ~(self.ALIGN - 1)
        self._cursor += aligned
        self._ensure_backing()
        self._objects[offset] = obj
        self._sizes[offset] = nbytes
        return offset

    def deref(self, offset: int) -> Any:
        """Fetch the object stored at ``offset`` (any node can do this)."""
        if offset == 0:
            raise ValueError("NULL checkpoint offset")
        obj = self._objects.get(offset)
        if obj is None:
            raise KeyError(f"no object at heap offset {offset}")
        return obj

    # -- accounting ------------------------------------------------------------

    @property
    def used_bytes(self) -> int:
        return self._cursor

    @property
    def backing_frames(self) -> np.ndarray:
        """The CXL frames backing this heap (empty once released)."""
        if self._frames is None:
            return np.empty(0, dtype=np.int64)
        return self._frames

    def release(self) -> int:
        """Free the backing CXL frames; returns pages released."""
        if self._released:
            return 0
        self._released = True
        if self._frames is not None and self._frames.size:
            self.fabric.put_frames(self._frames)
        freed = self._frame_count
        self._objects.clear()
        self._sizes.clear()
        self._frames = None
        self._frame_count = 0
        return freed


__all__ = ["CxlHeap"]
