"""Direct memory reclaim for a node's local DRAM.

A kswapd-style reclaimer invoked from the frame allocator's pressure
handler.  It frees memory in preference order:

1. **application victims** — registered callbacks (CXLporter registers its
   idle-instance evictor here), asked first because they free the most;
2. **page cache** — whole files dropped in insertion (oldest-first) order;
   frames still mapped by processes survive through their mapping
   references.

Two things are *never* reclaimed, matching §4.3: CXL frames (they belong
to the shared device, whose reclaim is coordinated pod-wide by the
checkpoint object store, not by any single OS instance) and PIN-marked
checkpointed pages (they are excluded from the LRU lists by construction —
this reclaimer only ever walks node-local structures).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover
    from repro.os.node import ComputeNode

#: A victim source frees application memory on demand: it receives the
#: shortfall in frames and returns roughly how many frames it freed.
VictimSource = Callable[[int], int]


class MemoryReclaimer:
    """Per-node direct reclaim."""

    def __init__(self, node: "ComputeNode") -> None:
        self.node = node
        self._victim_sources: list[VictimSource] = []
        self.reclaim_events = 0
        self.frames_reclaimed = 0

    def register_victim_source(self, source: VictimSource) -> None:
        """Add an application-level evictor (consulted before page cache)."""
        self._victim_sources.append(source)

    def reclaim(self, shortfall_frames: int) -> bool:
        """Try to free at least ``shortfall_frames``; True if any freed."""
        if shortfall_frames <= 0:
            return False
        self.reclaim_events += 1
        free_before = self.node.dram.free_frames
        target = free_before + shortfall_frames

        for source in self._victim_sources:
            if self.node.dram.free_frames >= target:
                break
            source(target - self.node.dram.free_frames)

        if self.node.dram.free_frames < target:
            for path in self.node.pagecache.files():
                if self.node.dram.free_frames >= target:
                    break
                self.node.pagecache.drop_file(path)

        freed = self.node.dram.free_frames - free_before
        self.frames_reclaimed += max(0, freed)
        return freed > 0


__all__ = ["MemoryReclaimer", "VictimSource"]
