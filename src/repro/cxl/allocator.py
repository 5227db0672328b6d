"""Physical frame allocator.

Frames are global integers.  Each pool (one per node's DRAM, one for the CXL
device) owns a disjoint range ``[base, base + capacity)``, so a frame number
alone identifies where a page physically lives.  CXL frames carry per-frame
reference counts because checkpoints are shared by many restored processes
across nodes and are reclaimed only when the last sharer drops them.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, field

import numpy as np


class OutOfMemoryError(RuntimeError):
    """Raised when a pool cannot satisfy an allocation."""

    def __init__(self, pool: str, requested: int, free: int, capacity: int) -> None:
        super().__init__(
            f"pool {pool!r}: requested {requested} frames, "
            f"only {free} free of {capacity}"
        )
        self.pool = pool
        self._args = (pool, requested, free, capacity)

    def __reduce__(self) -> tuple:
        # Rebuilt from its own arguments, so it crosses a worker boundary.
        return (type(self), self._args)


@dataclass
class LeakReport:
    """Outcome of cross-checking a pool's refcounts against its live owners.

    ``leaked`` holds frames the pool thinks are allocated but no live owner
    accounts for; ``mismatched`` maps frames to ``(actual, expected)``
    refcount pairs; ``missing`` holds frames an owner claims but the pool
    considers free (a double-free or quarantine artifact).
    """

    pool: str
    leaked: list[int] = field(default_factory=list)
    mismatched: dict[int, tuple[int, int]] = field(default_factory=dict)
    missing: list[int] = field(default_factory=list)
    #: Frames taken out of service by the RAS layer (poisoned, refcount
    #: dropped to zero, never recycled).  Informational: an offlined frame
    #: is an explicit owner class, not a leak, so it never affects ``clean``.
    offlined: list[int] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not (self.leaked or self.mismatched or self.missing)

    @property
    def leaked_frames(self) -> int:
        """Total frames in any inconsistent state (the sweep's headline)."""
        return len(self.leaked) + len(self.mismatched) + len(self.missing)

    def describe(self) -> str:
        if self.clean:
            return f"pool {self.pool!r}: clean"
        parts = [f"pool {self.pool!r}:"]
        if self.leaked:
            parts.append(f"{len(self.leaked)} leaked (e.g. {self.leaked[:4]})")
        if self.mismatched:
            sample = list(self.mismatched.items())[:4]
            parts.append(f"{len(self.mismatched)} refcount mismatches (e.g. {sample})")
        if self.missing:
            parts.append(f"{len(self.missing)} missing (e.g. {self.missing[:4]})")
        return " ".join(parts)


class RefCounts(Mapping):
    """Frame -> refcount as two parallel arrays: ``frames`` sorted and
    distinct, ``counts`` their refcounts.  Read-only; ``len`` is the number
    of distinct frames."""

    def __init__(self, frames: np.ndarray, counts: np.ndarray) -> None:
        self.frames = frames
        self.counts = counts

    @classmethod
    def of(cls, chunks: "Iterable[np.ndarray]") -> "RefCounts":
        """One reference per listing: a frame listed twice, in one frame
        array or in two, counts 2."""
        frames = np.concatenate([np.empty(0, dtype=np.int64), *chunks])
        uniq, counts = np.unique(
            np.asarray(frames, dtype=np.int64), return_counts=True
        )
        return cls(uniq, counts.astype(np.int64))

    @classmethod
    def of_mapping(cls, mapping: "Mapping[int, int]") -> "RefCounts":
        if isinstance(mapping, RefCounts):
            return mapping
        frames = np.fromiter(mapping.keys(), dtype=np.int64, count=len(mapping))
        counts = np.fromiter(mapping.values(), dtype=np.int64, count=len(mapping))
        order = np.argsort(frames)
        return cls(frames[order], counts[order])

    def lookup(self, frames: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(counts, listed)`` for ``frames``: each frame's count (0 where
        unlisted) and whether it is listed."""
        pos = np.searchsorted(self.frames, frames)
        listed = pos < self.frames.size
        listed[listed] = self.frames[pos[listed]] == frames[listed]
        counts = np.zeros(frames.size, dtype=np.int64)
        counts[listed] = self.counts[pos[listed]]
        return counts, listed

    def __getitem__(self, frame: int) -> int:
        counts, listed = self.lookup(np.array([frame], dtype=np.int64))
        if not listed[0]:
            raise KeyError(frame)
        return int(counts[0])

    def __iter__(self) -> Iterator[int]:
        return iter(self.frames.tolist())

    def __len__(self) -> int:
        return int(self.frames.size)


class FrameAllocator:
    """Bump-plus-free-list allocator over a frame range, with refcounts.

    Allocation prefers the free list (reuse) and falls back to bumping the
    high-water mark.  ``alloc_many``/``put`` are vectorized since the
    simulator routinely moves hundreds of thousands of frames at once.
    """

    def __init__(self, name: str, base: int, capacity_frames: int) -> None:
        if capacity_frames <= 0:
            raise ValueError(f"pool {name!r} needs positive capacity")
        if base < 0:
            raise ValueError(f"pool {name!r} needs non-negative base")
        self.name = name
        self.base = int(base)
        self.capacity_frames = int(capacity_frames)
        #: Optional callback invoked on allocation failure: it receives the
        #: shortfall in frames and returns True if it freed memory (the
        #: allocation is retried once) — direct-reclaim, allocator-style.
        self.pressure_handler = None
        #: Set when the pool's owner (a node) crashed: the memory is gone,
        #: so refcount traffic against it becomes a no-op and allocation
        #: always fails.  See :meth:`quarantine`.
        self.quarantined = False
        self._bump = 0  # next never-allocated local index
        self._free: list[int] = []  # recycled local indices (LIFO)
        #: Allocated frames flagged corrupt by the RAS layer.  They stay
        #: refcounted (owners still map them) but every checksum point
        #: refuses to serve them; when the last reference drops they move
        #: to ``_offlined`` instead of the free list.
        self._poisoned: set[int] = set()
        #: Frames permanently out of service (page-offline).  Never
        #: recycled, subtracted from capacity, excluded from leak audits
        #: as an explicit owner class.
        self._offlined: set[int] = set()
        self._bad_cache: "np.ndarray | None" = None  # sorted poisoned+offlined
        #: Poison-visibility epoch: bumped at exactly the sites that drop
        #: ``_bad_cache`` (poison, clear_poison, poisoned-frame offlining
        #: on last put).  Consumers that memoize verification verdicts —
        #: the restore-plan cache (:mod:`repro.rfork.restoreplan`) — key
        #: them by this counter so any visibility change forces a rescan.
        self.epoch = 0
        # Refcounts grow lazily: pools are sized at up to 128 GiB (33M
        # frames) and eagerly allocating that array would waste real memory.
        self._refcount = np.zeros(min(capacity_frames, 4096), dtype=np.int32)
        self._allocated = 0

    def _ensure_refcount_capacity(self, limit: int) -> None:
        if limit <= self._refcount.size:
            return
        new_size = max(limit, self._refcount.size * 2)
        new_size = min(new_size, self.capacity_frames)
        grown = np.zeros(new_size, dtype=np.int32)
        grown[: self._refcount.size] = self._refcount
        self._refcount = grown

    # -- introspection -------------------------------------------------------

    @property
    def limit(self) -> int:
        """One past the largest frame number this pool can hand out."""
        return self.base + self.capacity_frames

    @property
    def allocated_frames(self) -> int:
        return self._allocated

    @property
    def free_frames(self) -> int:
        return self.capacity_frames - self._allocated - len(self._offlined)

    @property
    def used_bytes(self) -> int:
        from repro.sim.units import pages_to_bytes

        return pages_to_bytes(self._allocated)

    def owns(self, frame: int) -> bool:
        return self.base <= frame < self.limit

    def refcount(self, frame: int) -> int:
        return int(self._refcount[self._index(frame)])

    def refcounts(self, frames: "np.ndarray | Iterable[int]") -> np.ndarray:
        """Vectorized refcount lookup (read-only; for the checkers)."""
        idx = self._indices(frames)
        out = np.zeros(idx.size, dtype=np.int32)
        in_range = idx < self._refcount.size
        out[in_range] = self._refcount[idx[in_range]]
        return out

    @property
    def live_frames(self) -> int:
        """Frames with a nonzero refcount — must equal ``allocated_frames``."""
        return int(np.count_nonzero(self._refcount[: self._bump] > 0))

    def _index(self, frame: int) -> int:
        if not self.owns(frame):
            raise ValueError(f"frame {frame} not owned by pool {self.name!r}")
        return frame - self.base

    # -- allocation ----------------------------------------------------------

    def alloc_many(self, count: int) -> np.ndarray:
        """Allocate ``count`` frames; returns their global frame numbers."""
        if count < 0:
            raise ValueError(f"negative allocation: {count}")
        if self.quarantined:
            raise OutOfMemoryError(
                self.name, count, self.free_frames, self.capacity_frames
            )
        if count > self.free_frames:
            handler = self.pressure_handler
            if handler is not None:
                self.pressure_handler = None  # no reentrant reclaim
                try:
                    handler(count - self.free_frames)
                finally:
                    self.pressure_handler = handler
            if count > self.free_frames:
                raise OutOfMemoryError(
                    self.name, count, self.free_frames, self.capacity_frames
                )
        reuse = min(count, len(self._free))
        frames = np.empty(count, dtype=np.int64)
        if reuse:
            recycled = self._free[len(self._free) - reuse :]
            del self._free[len(self._free) - reuse :]
            frames[:reuse] = recycled
        fresh = count - reuse
        if fresh:
            frames[reuse:] = np.arange(self._bump, self._bump + fresh, dtype=np.int64)
            self._bump += fresh
        self._ensure_refcount_capacity(self._bump)
        self._refcount[frames] = 1
        self._allocated += count
        frames += self.base
        return frames

    # -- sharing -------------------------------------------------------------

    def get(self, frames: "np.ndarray | Iterable[int] | int") -> None:
        """Increment refcounts (a new sharer mapped these frames)."""
        if self.quarantined:
            return
        idx = self._indices(frames)
        if np.any(self._refcount[idx] <= 0):
            raise ValueError(f"pool {self.name!r}: get() on unallocated frame")
        self._refcount[idx] += 1

    def put(self, frames: "np.ndarray | Iterable[int] | int") -> int:
        """Decrement refcounts; frees frames that reach zero.

        Returns the number of frames actually freed.
        """
        if self.quarantined:
            return 0
        idx = self._indices(frames)
        if np.any(self._refcount[idx] <= 0):
            raise ValueError(f"pool {self.name!r}: put() on unallocated frame")
        self._refcount[idx] -= 1
        dead = idx[self._refcount[idx] == 0]
        if dead.size:
            self._allocated -= int(dead.size)
            if self._poisoned:
                # Containment: a poisoned frame whose last reference drops
                # is offlined instead of recycled — it never re-enters the
                # free list, so corruption cannot resurface in a fresh
                # allocation.
                recycled = []
                offlined = 0
                for i in dead:
                    i = int(i)
                    if i in self._poisoned:
                        self._poisoned.discard(i)
                        self._offlined.add(i)
                        offlined += 1
                    else:
                        recycled.append(i)
                self._free.extend(recycled)
                if offlined:
                    self._bad_cache = None
                    self.epoch += 1
                    from repro.telemetry import TRACE

                    TRACE.count("ras.frames_offlined", offlined)
            else:
                self._free.extend(dead.tolist())
        return int(dead.size)

    def _indices(self, frames) -> np.ndarray:
        arr = np.atleast_1d(np.asarray(frames, dtype=np.int64))
        if arr.size == 0:
            return arr
        if arr.min() < self.base or arr.max() >= self.limit:
            raise ValueError(f"frames outside pool {self.name!r}")
        return arr - self.base

    # -- failure handling ----------------------------------------------------

    def quarantine(self) -> None:
        """Mark the pool dead: its node crashed, taking the memory with it.

        Allocation fails from now on and refcount traffic (``get``/``put``)
        becomes a no-op — survivors may still hold stale references to dead
        frames during teardown, and those drops must not corrupt accounting.
        Idempotent.
        """
        self.quarantined = True

    # -- RAS: poison / page-offline ------------------------------------------

    @property
    def has_poison(self) -> bool:
        """O(1) hot-path early-out: any frame currently flagged poisoned?"""
        return bool(self._poisoned)

    @property
    def offlined_frames(self) -> int:
        return len(self._offlined)

    @property
    def poison_rate(self) -> float:
        """Fraction of the pool's capacity lost or losing to corruption.

        Counts both live poisoned frames and permanently offlined ones —
        the signal the cluster router folds into placement pressure.
        """
        return (len(self._poisoned) + len(self._offlined)) / self.capacity_frames

    def poison(self, frames: "np.ndarray | Iterable[int] | int") -> int:
        """Flag frames as corrupted; returns how many were newly flagged.

        Allocated frames stay mapped (owners hold references to garbage —
        exactly the hardware poison model) but are refused at every RAS
        checksum point and offlined when their last reference drops.  Free
        frames are offlined immediately: there is nothing to detect, the
        page just leaves the pool.  Only frames that have been handed out
        at least once can be poisoned; a quarantined pool ignores poison
        (the whole node is already gone).
        """
        if self.quarantined:
            return 0
        idx = self._indices(frames)
        if idx.size and int(idx.max()) >= self._bump:
            raise ValueError(
                f"pool {self.name!r}: cannot poison a never-allocated frame"
            )
        newly = 0
        freed_hits = []
        for i in idx:
            i = int(i)
            if i in self._poisoned or i in self._offlined:
                continue
            if i < self._refcount.size and self._refcount[i] > 0:
                self._poisoned.add(i)
            else:
                freed_hits.append(i)
                self._offlined.add(i)
            newly += 1
        if freed_hits:
            hit_set = set(freed_hits)
            self._free = [i for i in self._free if i not in hit_set]
        if newly:
            self._bad_cache = None
            self.epoch += 1
        return newly

    def clear_poison(self, frames: "np.ndarray | Iterable[int] | int") -> int:
        """Un-flag poisoned frames (scrub repaired them in place)."""
        idx = self._indices(frames)
        cleared = 0
        for i in idx:
            i = int(i)
            if i in self._poisoned:
                self._poisoned.discard(i)
                cleared += 1
        if cleared:
            self._bad_cache = None
            self.epoch += 1
        return cleared

    def _bad_indices(self) -> np.ndarray:
        if self._bad_cache is None:
            bad = sorted(self._poisoned | self._offlined)
            self._bad_cache = np.asarray(bad, dtype=np.int64)
        return self._bad_cache

    def poisoned_in(self, frames: "np.ndarray | Iterable[int]") -> np.ndarray:
        """Global frame numbers from ``frames`` that are poisoned/offlined.

        Vectorized membership test; O(1) when the pool is clean, which is
        what keeps RAS verification free on unpoisoned hot paths.
        """
        if not self._poisoned and not self._offlined:
            return np.empty(0, dtype=np.int64)
        arr = np.atleast_1d(np.asarray(frames, dtype=np.int64))
        if arr.size == 0:
            return np.empty(0, dtype=np.int64)
        idx = self._indices(arr)
        hit = np.isin(idx, self._bad_indices())
        return np.unique(arr[hit])

    # -- leak auditing -------------------------------------------------------

    def snapshot_refcounts(self) -> "RefCounts":
        """Global frame number -> refcount for all allocated frames."""
        live = np.flatnonzero(self._refcount[: self._bump] > 0)
        return RefCounts(live + self.base, self._refcount[live].astype(np.int64))

    def audit(self, expected: "Mapping[int, int]") -> LeakReport:
        """Cross-check refcounts against an owner-derived expected model.

        ``expected`` maps global frame numbers to the refcount implied by
        walking every live owner (page tables, checkpoints, heaps, files,
        pinned regions) — a :class:`RefCounts`, or any mapping.  A
        quarantined pool reports clean: its frames died with the node and
        are no longer part of the accounting.
        """
        report = LeakReport(pool=self.name)
        if self.quarantined:
            return report
        actual = self.snapshot_refcounts()
        expected = RefCounts.of_mapping(expected)
        want, listed = expected.lookup(actual.frames)
        report.leaked = actual.frames[~listed].tolist()
        wrong = listed & (want != actual.counts)
        report.mismatched = dict(zip(
            actual.frames[wrong].tolist(),
            zip(actual.counts[wrong].tolist(), want[wrong].tolist()),
        ))
        # Claimed frames of this pool that hold no reference.
        claimed = expected.frames[
            (expected.frames >= self.base) & (expected.frames < self.limit)
        ]
        _, held = actual.lookup(claimed)
        report.missing = claimed[~held].tolist()
        report.offlined = sorted(self.base + i for i in self._offlined)
        return report

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FrameAllocator(name={self.name!r}, base={self.base}, "
            f"allocated={self._allocated}/{self.capacity_frames})"
        )


__all__ = ["FrameAllocator", "LeakReport", "OutOfMemoryError", "RefCounts"]
