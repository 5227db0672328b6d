"""The checkpoint object store (§5, "Object Store of Checkpoints").

A distributed map on the CXL fabric associating <user, function> tuples
with checkpoint identifiers (CIDs).  CXLporter stores a CID after
checkpointing, queries before restoring, and reclaims checkpoints when CXL
memory runs short.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Optional

from repro.cxl.fabric import CxlFabric

#: Directory pages pinned in CXL for the store's index.
_DIRECTORY_PAGES = 16
#: Cost of one directory lookup over the fabric.
LOOKUP_NS = 800.0


def _resident_bytes(checkpoint) -> int:
    """Device bytes an image actually occupies.  Dedup-sealed images
    expose ``resident_cxl_bytes`` (chunk frames shared with other
    checkpoints are borrowed, not owned, so evicting the image cannot
    free them); identical to ``cxl_bytes`` for dedup-off images."""
    resident = getattr(checkpoint, "resident_cxl_bytes", None)
    if resident is not None:
        return resident
    return getattr(checkpoint, "cxl_bytes", 0)


@dataclass
class StoredCheckpoint:
    """One object-store entry."""

    cid: int
    user: str
    function: str
    mechanism: str
    checkpoint: Any
    created_at: int
    last_used_at: int
    restores: int = 0


class CheckpointObjectStore:
    """<user, function> -> CID -> checkpoint, resident on the fabric."""

    def __init__(self, fabric: CxlFabric, *, name: str = "porter-objectstore") -> None:
        self.fabric = fabric
        self.name = name
        fabric.pin_region(name, _DIRECTORY_PAGES)
        self._cids = itertools.count(1)
        self._by_cid: dict[int, StoredCheckpoint] = {}
        self._by_key: dict[tuple, int] = {}

    def __len__(self) -> int:
        return len(self._by_cid)

    def put(
        self,
        user: str,
        function: str,
        checkpoint: Any,
        *,
        mechanism: str,
        now: int = 0,
    ) -> StoredCheckpoint:
        """Register a checkpoint; replaces (and deletes) any previous one."""
        key = (user, function)
        old_cid = self._by_key.get(key)
        if old_cid is not None:
            self.evict(old_cid)
        entry = StoredCheckpoint(
            cid=next(self._cids),
            user=user,
            function=function,
            mechanism=mechanism,
            checkpoint=checkpoint,
            created_at=now,
            last_used_at=now,
        )
        self._by_cid[entry.cid] = entry
        self._by_key[key] = entry.cid
        return entry

    def query(self, user: str, function: str, *, now: int = 0) -> Optional[StoredCheckpoint]:
        """CID lookup before a restore; None on a miss (→ cold start)."""
        cid = self._by_key.get((user, function))
        if cid is None:
            return None
        entry = self._by_cid[cid]
        entry.last_used_at = now
        entry.restores += 1
        return entry

    def contains(self, user: str, function: str) -> bool:
        """Existence check that does not touch LRU/restore counters."""
        return (user, function) in self._by_key

    def peek(self, user: str, function: str) -> Optional[StoredCheckpoint]:
        """Read an entry without touching LRU/restore counters.

        Used by the replication layer: shipping an image to another pod
        reads it but is not a restore, so it must not look like recency.
        """
        cid = self._by_key.get((user, function))
        return None if cid is None else self._by_cid[cid]

    def evict(self, cid: int) -> None:
        """Delete one checkpoint and release its storage."""
        entry = self._by_cid.pop(cid, None)
        if entry is None:
            raise KeyError(f"no checkpoint with cid {cid}")
        self._by_key.pop((entry.user, entry.function), None)
        entry.checkpoint.delete()

    def reclaim(self, target_bytes: int) -> int:
        """Free at least ``target_bytes`` of CXL by evicting LRU entries.

        Returns bytes actually freed (may be less if the store empties).
        """
        freed = 0
        entries = sorted(self._by_cid.values(), key=lambda e: e.last_used_at)
        for entry in entries:
            if freed >= target_bytes:
                break
            size = _resident_bytes(entry.checkpoint)
            self.evict(entry.cid)
            freed += size
        return freed

    def entries(self) -> list:
        return list(self._by_cid.values())


__all__ = ["CheckpointObjectStore", "StoredCheckpoint", "LOOKUP_NS"]
