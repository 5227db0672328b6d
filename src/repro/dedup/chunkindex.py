"""The content-addressed frame index layered on :class:`FrameAllocator`.

``ChunkIndex`` maps a 63-bit content code — the simulator's sha256(page
bytes) — to the single CXL frame holding that content, plus a per-frame
**sharer count**: how many live checkpoints claim the chunk.  It holds no
frame references itself; callers pair every ``adopt`` with the
``fabric.get_frames`` reference the adopting checkpoint takes, so the
allocator's refcounts stay the one source of truth and ``audit_pod`` can
cross-check the index against the checkpoint census.

Codes are derived with sha256 over canonical content identities and
truncated to 63 bits so whole page tables of them fit in vectorized
``int64`` arrays (the same truncation a real implementation would apply to
fit a hash into a PTE-sized slot; collisions at 2^63 are below the
simulator's horizon).  Code ``0`` (:data:`NO_CODE`) is reserved as the
"no content recorded" sentinel.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

#: Sentinel code meaning "no content recorded for this page".
NO_CODE = 0

_MASK63 = np.uint64(0x7FFF_FFFF_FFFF_FFFF)
_MIX_PRIME = np.uint64(0x9E37_79B9_7F4A_7C15)


def _h63(*parts) -> int:
    """sha256 over a canonical string, truncated to a nonzero 63-bit int."""
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()
    code = int.from_bytes(digest[:8], "little") & 0x7FFF_FFFF_FFFF_FFFF
    return code or 1


def _mix(base: int, values: np.ndarray) -> np.ndarray:
    """Spread a sha256-derived base over an int64 value array (vectorized)."""
    v = np.asarray(values, dtype=np.int64).astype(np.uint64)
    h = np.uint64(base) + v * _MIX_PRIME
    h ^= h >> np.uint64(29)
    h &= _MASK63
    h = np.where(h == np.uint64(0), np.uint64(1), h)
    return h.astype(np.int64)


@dataclass
class DedupStats:
    """Lifetime counters for one index (one CXL fabric)."""

    #: Seal-time index hits: pages that resolved to an existing frame.
    hits: int = 0
    #: Seal-time misses: pages that allocated (and registered) a new frame.
    misses: int = 0
    #: Zero pages elided from checkpoints instead of stored (the degenerate
    #: chunk: restore faults them demand-zero, no frame ever holds them).
    zero_elided: int = 0
    #: Frames moved by RAS repair (``repoint``).
    repointed: int = 0
    #: Replication: chunks the destination already held (not re-shipped).
    wire_chunks_deduped: int = 0


@dataclass
class _Entry:
    code: int
    frame: int
    sharers: int = 1


class ChunkIndex:
    """Content code -> frame id, with per-frame checkpoint sharer counts."""

    #: Monotonic per-process instance counter.  Gives each index a distinct
    #: ``origin`` so private/frame codes from different pods never collide
    #: by construction.  Deterministic: pods are built in program order, and
    #: no experiment result may depend on the *absolute* origin value (only
    #: on code equality, which origins preserve).
    _instances = 0

    def __init__(self, fabric) -> None:
        ChunkIndex._instances += 1
        self.origin = ChunkIndex._instances
        self.fabric = fabric
        self._frame_by_code: dict[int, int] = {}
        self._code_by_frame: dict[int, int] = {}
        self._sharers: dict[int, int] = {}
        self._serial = 0
        self.stats = DedupStats()
        # Sorted (frames, codes) arrays for vectorized codes_for; rebuilt
        # lazily after any register/release/repoint.
        self._lookup_cache: Optional[tuple[np.ndarray, np.ndarray]] = None
        #: Repoint epoch: bumped whenever chunk content moves between
        #: frames under a live image (RAS repair).  The restore-plan cache
        #: (:mod:`repro.rfork.restoreplan`) keys plans by this counter so
        #: a repoint invalidates every memoized frame/attach array.
        self.epoch = 0

    # -- code derivation ---------------------------------------------------------

    def file_codes(self, path: str, pgoffs: np.ndarray) -> np.ndarray:
        """Codes for pristine file pages.  Keyed by ``(path, pgoff)`` only —
        no origin — because pristine file content is globally identical, so
        these chunks dedup across checkpoints, functions, and pods."""
        return _mix(_h63("file", path), pgoffs)

    def frame_codes(self, frames: np.ndarray) -> np.ndarray:
        """Codes for resident CXL frames the index has never seen (a
        checkpoint sealed before dedup was enabled).  Frame content is
        immutable while referenced, so frame identity is content identity —
        within this fabric, hence the origin in the key."""
        return _mix(_h63("frame", self.origin), frames)

    def private_codes(self, count: int) -> np.ndarray:
        """Fresh codes for pages with no provable content identity.  Each is
        unique (monotonic serial per index), so private content never
        falsely aliases; the cost is that it never dedups either."""
        codes = _mix(_h63("priv", self.origin),
                     np.arange(self._serial, self._serial + count))
        self._serial += count
        return codes

    # -- the map -----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._frame_by_code)

    def lookup(self, code: int) -> Optional[int]:
        """Frame holding ``code``'s content, or None.  A poisoned frame is
        reported as a miss: new checkpoints must never adopt corrupt
        content (existing sharers are RAS's problem, not ours)."""
        frame = self._frame_by_code.get(int(code))
        if frame is None:
            return None
        if self.fabric.device.frames.is_poisoned(frame):
            return None
        return frame

    def adopt(self, frame: int) -> None:
        """A checkpoint claims an existing chunk: bump the sharer count and
        take the fabric reference the checkpoint will hold."""
        frame = int(frame)
        self._sharers[frame] += 1
        self.fabric.get_frames(np.array([frame], dtype=np.int64))
        self.stats.hits += 1

    def register(self, code: int, frame: int) -> None:
        """Record a freshly sealed chunk (the caller allocated ``frame`` and
        already holds its reference).  First-writer-wins: if ``code`` is
        already mapped (a poisoned entry being superseded, or a duplicate
        within one seal), the existing mapping stands and ``frame`` simply
        stays a private, unindexed copy."""
        code = int(code)
        frame = int(frame)
        if code == NO_CODE or code in self._frame_by_code:
            return
        self._frame_by_code[code] = frame
        self._code_by_frame[frame] = code
        self._sharers[frame] = 1
        self._lookup_cache = None
        self.stats.misses += 1

    def release(self, frames: np.ndarray) -> None:
        """Drop one sharer from every indexed frame in ``frames`` (a
        checkpoint is being deleted).  Unindexed frames are skipped; an
        entry whose sharer count reaches zero is evicted.  Callers still
        drop the fabric references separately (checkpoint ``delete()``
        already does)."""
        for frame in np.unique(np.asarray(frames, dtype=np.int64)):
            frame = int(frame)
            code = self._code_by_frame.get(frame)
            if code is None:
                continue
            remaining = self._sharers[frame] - 1
            if remaining > 0:
                self._sharers[frame] = remaining
                continue
            del self._sharers[frame]
            del self._code_by_frame[frame]
            # Guard: a superseded (poisoned) entry may have been remapped.
            if self._frame_by_code.get(code) == frame:
                del self._frame_by_code[code]
            self._lookup_cache = None

    def repoint(self, old: int, new: int) -> None:
        """RAS repair moved a chunk's content to a fresh frame: transfer the
        registration and sharer count from ``old`` to ``new``."""
        old, new = int(old), int(new)
        code = self._code_by_frame.pop(old, None)
        if code is None:
            return
        self._code_by_frame[new] = code
        if self._frame_by_code.get(code) == old:
            self._frame_by_code[code] = new
        self._sharers[new] = self._sharers.pop(old)
        self._lookup_cache = None
        self.epoch += 1
        self.stats.repointed += 1

    # -- queries -----------------------------------------------------------------

    def code_of(self, frame: int) -> int:
        """The content code registered for ``frame`` (NO_CODE if unindexed)."""
        return self._code_by_frame.get(int(frame), NO_CODE)

    def codes_for(self, frames: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`code_of` (NO_CODE where unindexed)."""
        frames = np.asarray(frames, dtype=np.int64)
        if not self._code_by_frame or frames.size == 0:
            return np.zeros(frames.shape, dtype=np.int64)
        cache = self._lookup_cache
        if cache is None:
            keys = np.fromiter(self._code_by_frame.keys(), dtype=np.int64,
                               count=len(self._code_by_frame))
            vals = np.fromiter(self._code_by_frame.values(), dtype=np.int64,
                               count=len(self._code_by_frame))
            order = np.argsort(keys)
            cache = (keys[order], vals[order])
            self._lookup_cache = cache
        keys, vals = cache
        idx = np.searchsorted(keys, frames)
        idx = np.clip(idx, 0, keys.size - 1)
        out = np.where(keys[idx] == frames, vals[idx], np.int64(NO_CODE))
        return out.astype(np.int64)

    def missing_codes(self, codes: np.ndarray) -> np.ndarray:
        """The unique codes in ``codes`` this index cannot serve (unindexed
        or poisoned).  The delta-replication missing-set: only these chunks'
        page payloads need to traverse the interconnect."""
        uniq = np.unique(np.asarray(codes, dtype=np.int64))
        uniq = uniq[uniq != NO_CODE]
        miss = [c for c in uniq.tolist() if self.lookup(c) is None]
        return np.asarray(miss, dtype=np.int64)

    def sharer_count(self, frame: int) -> int:
        return self._sharers.get(int(frame), 0)

    def wrong_frame_for(self, code: int) -> Optional[int]:
        """A deterministic *different* chunk frame (the ``alias-wrong-chunk``
        seeded mutation maps a page into the wrong hash bucket)."""
        for frame, frame_code in self._code_by_frame.items():
            if frame_code != int(code):
                return frame
        return None

    # -- consistency -------------------------------------------------------------

    def audit(self, checkpoints) -> list[str]:
        """Cross-check sharer counts against the live checkpoint census.

        Every registered frame's sharer count must equal the number of
        live checkpoints listing it (cxlfork ``data_frames``, criu-cxl
        ``chunk_frames``); the two directional maps must agree.  Returns
        human-readable mismatch descriptions (empty = consistent).
        """
        problems: list[str] = []
        for code, frame in self._frame_by_code.items():
            if self._code_by_frame.get(frame) != code:
                problems.append(
                    f"chunk map asymmetry: code {code} -> frame {frame} "
                    f"but frame maps to {self._code_by_frame.get(frame)}"
                )
        census: dict[int, int] = {}
        for ckpt in checkpoints:
            if getattr(ckpt, "_deleted", False):
                continue
            frames = getattr(ckpt, "data_frames", None)
            if frames is None:
                frames = getattr(ckpt, "chunk_frames", None)
            if frames is None or not len(frames):
                continue
            for frame in np.asarray(frames, dtype=np.int64):
                frame = int(frame)
                if frame in self._code_by_frame:
                    census[frame] = census.get(frame, 0) + 1
        for frame, sharers in self._sharers.items():
            owned = census.get(frame, 0)
            if owned != sharers:
                problems.append(
                    f"chunk frame {frame} (code {self._code_by_frame[frame]}): "
                    f"{sharers} recorded sharers but {owned} live checkpoint(s) "
                    "list it"
                )
        for frame in census:
            if frame not in self._sharers:
                problems.append(
                    f"frame {frame} is indexed but has no sharer record"
                )
        return problems


__all__ = ["ChunkIndex", "DedupStats", "NO_CODE", "_h63", "_mix"]
