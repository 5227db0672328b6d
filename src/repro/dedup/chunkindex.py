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
from itertools import islice, repeat
from typing import Optional

import numpy as np

from repro.cxl.allocator import RefCounts

#: Sentinel code meaning "no content recorded for this page".
NO_CODE = 0
#: Sentinel frame :meth:`ChunkIndex.lookup` returns for a code it cannot serve.
MISS = -1

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

    def lookup(self, codes) -> np.ndarray:
        """The frame holding each code's content, or :data:`MISS` where the
        code is unknown, ``NO_CODE`` or held by a poisoned frame: new
        checkpoints must never adopt corrupt content (existing sharers are
        RAS's problem, not ours).  A scalar code is the one-element case."""
        codes = np.atleast_1d(np.asarray(codes, dtype=np.int64))
        n = codes.size
        frames = np.fromiter(
            map(self._frame_by_code.get, codes.tolist(), repeat(MISS, n)),
            dtype=np.int64, count=n,
        )
        frames[codes == NO_CODE] = MISS
        bad = self.fabric.device.frames.poisoned_in(frames[frames != MISS])
        if bad.size:
            frames[np.isin(frames, bad)] = MISS
        return frames

    def adopt(self, frames) -> None:
        """Checkpoints claim existing chunks: bump each frame's sharer
        count and take the fabric references the checkpoint will hold.
        ``frames`` must be distinct (a vectorized ``get`` applies a
        repeated frame once)."""
        frames = np.atleast_1d(np.asarray(frames, dtype=np.int64))
        keys = frames.tolist()
        sharers = self._sharers
        bumped = np.fromiter(
            map(sharers.__getitem__, keys), dtype=np.int64, count=len(keys)
        ) + 1
        # Take the references first: a refused ``get`` leaves no trace.
        self.fabric.get_frames(frames)
        sharers.update(zip(keys, bumped.tolist()))
        self.stats.hits += len(keys)

    def register(self, codes, frames) -> None:
        """Record freshly sealed chunks (the caller allocated ``frames``,
        parallel to ``codes``, and already holds their references).
        First-writer-wins in slot order: a code already mapped (a poisoned
        entry being superseded) or repeated at a later slot keeps its first
        mapping, and the other frame simply stays a private, unindexed
        copy.  ``NO_CODE`` never registers."""
        codes = np.atleast_1d(np.asarray(codes, dtype=np.int64))
        frames = np.atleast_1d(np.asarray(frames, dtype=np.int64))
        _, first = np.unique(codes, return_index=True)
        first.sort()
        first = first[codes[first] != NO_CODE]
        known = self._frame_by_code
        fresh = first[~np.fromiter(
            map(known.__contains__, codes[first].tolist()),
            dtype=bool, count=first.size,
        )]
        if not fresh.size:
            return
        new_codes = codes[fresh].tolist()
        new_frames = frames[fresh].tolist()
        known.update(zip(new_codes, new_frames))
        self._code_by_frame.update(zip(new_frames, new_codes))
        self._sharers.update(dict.fromkeys(new_frames, 1))
        self._lookup_cache = None
        self.stats.misses += len(new_codes)

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
        return uniq[self.lookup(uniq) == MISS]

    def sharer_count(self, frame: int) -> int:
        return self._sharers.get(int(frame), 0)

    def wrong_frame_for(self, codes) -> np.ndarray:
        """A deterministic *different* chunk frame per code, or :data:`MISS`
        where the index holds no other chunk (the ``alias-wrong-chunk``
        seeded mutation maps a page into the wrong hash bucket): the first
        registered frame, or the second for the first frame's own code."""
        codes = np.atleast_1d(np.asarray(codes, dtype=np.int64))
        out = np.full(codes.size, MISS, dtype=np.int64)
        first = list(islice(self._code_by_frame.items(), 2))
        if first:
            (frame0, code0), *rest = first
            out[:] = frame0
            out[codes == code0] = rest[0][0] if rest else MISS
        return out

    # -- consistency -------------------------------------------------------------

    def audit(self, checkpoints) -> list[str]:
        """Cross-check sharer counts against the live checkpoint census.

        Every registered frame's sharer count must equal the number of
        live checkpoints listing it (cxlfork ``data_frames``, criu-cxl
        ``chunk_frames``); the two directional maps must agree.  Returns
        human-readable mismatch descriptions (empty = consistent).
        """
        problems: list[str] = []
        codes = np.fromiter(self._frame_by_code.keys(), dtype=np.int64,
                            count=len(self._frame_by_code))
        frames = np.fromiter(self._frame_by_code.values(), dtype=np.int64,
                             count=codes.size)
        for i in np.flatnonzero(self.codes_for(frames) != codes).tolist():
            code, frame = int(codes[i]), int(frames[i])
            problems.append(
                f"chunk map asymmetry: code {code} -> frame {frame} "
                f"but frame maps to {self._code_by_frame.get(frame)}"
            )
        listed = []
        for ckpt in checkpoints:
            if getattr(ckpt, "_deleted", False):
                continue
            ckpt_frames = getattr(ckpt, "data_frames", None)
            if ckpt_frames is None:
                ckpt_frames = getattr(ckpt, "chunk_frames", None)
            if ckpt_frames is not None:
                listed.append(np.asarray(ckpt_frames, dtype=np.int64))
        listed = np.concatenate([np.empty(0, dtype=np.int64), *listed])
        indexed = listed[self.codes_for(listed) != NO_CODE]
        # The census: how many live checkpoints list each indexed frame.
        census = RefCounts.of([indexed])
        sharer_frames = np.fromiter(self._sharers.keys(), dtype=np.int64,
                                    count=len(self._sharers))
        sharers = np.fromiter(self._sharers.values(), dtype=np.int64,
                              count=sharer_frames.size)
        owned, _ = census.lookup(sharer_frames)
        for i in np.flatnonzero(owned != sharers).tolist():
            frame = int(sharer_frames[i])
            problems.append(
                f"chunk frame {frame} (code {self._code_by_frame[frame]}): "
                f"{int(sharers[i])} recorded sharers but {int(owned[i])} "
                "live checkpoint(s) list it"
            )
        unrecorded = indexed[~np.isin(indexed, sharer_frames)]
        for frame in dict.fromkeys(unrecorded.tolist()):  # first-listing order
            problems.append(
                f"frame {frame} is indexed but has no sharer record"
            )
        return problems


__all__ = ["ChunkIndex", "DedupStats", "MISS", "NO_CODE", "_h63", "_mix"]
