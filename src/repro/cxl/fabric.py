"""The CXL fabric: the pod-wide shared-memory view.

A :class:`CxlFabric` wires one :class:`~repro.cxl.device.CxlMemoryDevice`
to every node and is the unit the remote-fork mechanisms operate on: a
checkpoint written to the fabric by node 0 is immediately addressable by
node 1 at the same frame numbers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.cxl.device import CxlMemoryDevice, is_cxl_frame
from repro.cxl.latency import MemoryLatencyModel
from repro.telemetry import TRACE

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.os.node import ComputeNode


class CxlFabric:
    """Shared CXL memory plus the registry of attached nodes."""

    def __init__(self, device: Optional[CxlMemoryDevice] = None) -> None:
        self.device = device or CxlMemoryDevice()
        self.nodes: list["ComputeNode"] = []
        #: Named regions pinned in CXL memory (e.g. the CXLporter object
        #: store's directory); maps name -> frame array.
        self._regions: dict[str, np.ndarray] = {}
        #: Optional bandwidth contention model (see repro.cxl.bandwidth);
        #: None means an uncontended fabric (the paper's 2-node testbed).
        self.bandwidth = None
        #: Content-addressed chunk index (lazy; see repro.dedup).  One per
        #: fabric because content identity is pod-wide: every node sees the
        #: same frames, so one index serves every sealing mechanism.
        self._chunk_index = None

    @property
    def chunk_index(self):
        """The pod's content-addressed chunk index (created on first use)."""
        if self._chunk_index is None:
            from repro.dedup.chunkindex import ChunkIndex

            self._chunk_index = ChunkIndex(self)
        return self._chunk_index

    def contention_factor(self) -> float:
        """Current inflation of effective CXL access latency (>= 1.0)."""
        if self.bandwidth is None:
            return 1.0
        inflation = self.bandwidth.inflation()
        if TRACE.active():
            TRACE.observe("cxl.contention_factor", inflation)
        return inflation

    # -- topology -------------------------------------------------------------

    def attach_node(self, node: "ComputeNode") -> None:
        if node in self.nodes:
            raise ValueError(f"node {node.name!r} already attached")
        self.nodes.append(node)

    @property
    def latency(self) -> MemoryLatencyModel:
        return self.device.latency

    # -- allocation -------------------------------------------------------------

    def alloc_frames(self, count: int) -> np.ndarray:
        """Allocate ``count`` shared CXL frames (refcount 1)."""
        TRACE.count("cxl.frames_alloc", count)
        return self.device.frames.alloc_many(count)

    def get_frames(self, frames: np.ndarray) -> None:
        """Register an additional sharer of CXL ``frames``."""
        TRACE.count("cxl.frames_shared", int(frames.size))
        self.device.frames.get(frames)

    def put_frames(self, frames: np.ndarray) -> int:
        """Drop a sharer; frees frames whose refcount reaches zero."""
        freed = self.device.frames.put(frames)
        TRACE.count("cxl.frames_released", int(frames.size))
        return freed

    # -- named pinned regions ---------------------------------------------------

    def pin_region(self, name: str, nframes: int) -> np.ndarray:
        """Allocate a named region that lives as long as the fabric."""
        if name in self._regions:
            raise ValueError(f"region {name!r} already pinned")
        frames = self.alloc_frames(nframes)
        self._regions[name] = frames
        return frames

    # -- accounting ---------------------------------------------------------------

    @property
    def used_bytes(self) -> int:
        return self.device.used_bytes

    @property
    def free_bytes(self) -> int:
        return self.device.free_bytes

    @staticmethod
    def is_cxl_frame(frame: int) -> bool:
        return is_cxl_frame(frame)


__all__ = ["CxlFabric"]
