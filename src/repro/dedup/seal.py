"""Seal-time content resolution: which chunk does each page hold?

The simulator has no page bytes to hash, so the seal derives each present
page's content code from the same ground truth the differential oracle
re-derives labels from (:mod:`repro.check.oracle`) — conservatively: a code
is only shared between pages when the simulator can *prove* the bytes are
identical, otherwise the page gets a unique private code and simply never
dedups.  The derivation, first match wins:

1. **Resident CXL frame** — the page maps a CXL frame.  Frame content is
   immutable while referenced, so the frame's registered code (or a fresh
   frame-identity code) is the content.  Re-checkpoints of a restored child
   share every page it never wrote through this rule.
2. **Checkpoint copy** — the task is checkpoint-backed, the backing image
   covers this vpn, and the local page is not hardware-writable: it is a
   read-fault copy (MoA/Mitosis) of the checkpoint's bytes and inherits the
   checkpoint's code for the vpn.
3. **Pristine file page** — ``FILE_PRIVATE``, never hardware-writable,
   never dirtied, not checkpoint-covered: the bytes are the file's, keyed
   ``(path, pgoff)``.  This is the cross-checkpoint workhorse: independent
   checkpoints of the same function share their library images.
4. **Private** — everything else gets a unique serial code.

Zero pages need no rule: non-present anonymous pages are structurally
elided from every checkpoint (restore faults them demand-zero); the seal
just counts them as the elided zero-chunk population.
"""

from __future__ import annotations

import numpy as np

from repro.check import mutation as _mutation
from repro.dedup.chunkindex import MISS, NO_CODE, ChunkIndex
from repro.os.mm.pagetable import PTES_PER_LEAF
from repro.os.mm.pte import PTE_FRAME_SHIFT, PteFlags
from repro.os.mm.vma import VmaKind
from repro.telemetry import TRACE

_P = np.int64(int(PteFlags.PRESENT))
_W = np.int64(int(PteFlags.WRITE))
_D = np.int64(int(PteFlags.DIRTY))
_CXL = np.int64(int(PteFlags.CXL))


def seal_codes(task, index: ChunkIndex) -> tuple[dict[int, np.ndarray], int]:
    """Content codes for every present page of ``task``.

    Returns ``(code_map, zero_elided)``: ``code_map`` maps leaf index to an
    int64 array of ``PTES_PER_LEAF`` codes (``NO_CODE`` where not present),
    ``zero_elided`` counts the anonymous pages elided as the zero chunk.
    """
    mm = task.mm

    # Pristine-file candidates (rule 3), collected once across VMAs.
    file_vpns: list[np.ndarray] = []
    file_code_chunks: list[np.ndarray] = []
    zero_elided = 0
    for vma in mm.vmas:
        ptes = mm.pagetable.gather_ptes(vma.start_vpn, vma.npages)
        present = (ptes & _P) != 0
        if vma.kind is VmaKind.ANON or vma.path is None:
            zero_elided += int(vma.npages - np.count_nonzero(present))
            continue
        if vma.kind is not VmaKind.FILE_PRIVATE:
            continue
        clean = present & ((ptes & (_W | _D)) == 0)
        sel = np.nonzero(clean)[0]
        if sel.size:
            file_vpns.append(vma.start_vpn + sel)
            file_code_chunks.append(
                index.file_codes(vma.path, vma.file_offset_pages + sel)
            )
    if file_vpns:
        all_file_vpns = np.concatenate(file_vpns)
        all_file_codes = np.concatenate(file_code_chunks)
        order = np.argsort(all_file_vpns)
        all_file_vpns = all_file_vpns[order]
        all_file_codes = all_file_codes[order]
    else:
        all_file_vpns = np.empty(0, dtype=np.int64)
        all_file_codes = np.empty(0, dtype=np.int64)

    backing = mm.ckpt_backing
    bk = backing.checkpoint if backing is not None else None

    code_map: dict[int, np.ndarray] = {}
    for leaf_index, leaf in mm.pagetable.leaves():
        base = leaf_index * PTES_PER_LEAF
        ptes = leaf.ptes
        present = (ptes & _P) != 0
        codes = np.zeros(PTES_PER_LEAF, dtype=np.int64)
        if not np.any(present):
            code_map[leaf_index] = codes
            continue
        on_cxl = present & ((ptes & _CXL) != 0)
        hw_writable = (ptes & _W) != 0
        frames = (ptes >> np.int64(PTE_FRAME_SHIFT)).astype(np.int64)

        # Rule 1: resident CXL frames.
        if np.any(on_cxl):
            known = index.codes_for(frames[on_cxl])
            fresh = known == NO_CODE
            if np.any(fresh):
                known[fresh] = index.frame_codes(frames[on_cxl][fresh])
            codes[on_cxl] = known

        # Rule 2: local read-only realizations of checkpoint content.
        ck_present = np.zeros(PTES_PER_LEAF, dtype=bool)
        if bk is not None:
            ck = bk.pagetable.gather_ptes(base, PTES_PER_LEAF)
            ck_present = (ck & _P) != 0
            inherit = present & ~on_cxl & ck_present & ~hw_writable
            if np.any(inherit):
                ck_frames = (ck >> np.int64(PTE_FRAME_SHIFT)).astype(np.int64)
                bk_codes = None
                gather = getattr(bk, "gather_chunk_codes", None)
                if gather is not None:
                    bk_codes = gather(base, PTES_PER_LEAF)
                if bk_codes is None:
                    bk_codes = np.zeros(PTES_PER_LEAF, dtype=np.int64)
                inherited = bk_codes[inherit]
                unknown = inherited == NO_CODE
                if np.any(unknown):
                    inherited[unknown] = index.frame_codes(
                        ck_frames[inherit][unknown]
                    )
                codes[inherit] = inherited

        # Rule 3: pristine file pages (never checkpoint-covered ones — for a
        # backed task the clean-flags predicate cannot see pre-checkpoint
        # private modifications, so those fall through to rules 2/4).
        unresolved = present & (codes == NO_CODE)
        pristine = unresolved & ~ck_present
        if np.any(pristine) and all_file_vpns.size:
            sel = np.nonzero(pristine)[0]
            vpns = base + sel
            pos = np.searchsorted(all_file_vpns, vpns)
            pos = np.clip(pos, 0, all_file_vpns.size - 1)
            match = all_file_vpns[pos] == vpns
            codes[sel[match]] = all_file_codes[pos[match]]

        # Rule 4: unique private codes, assigned in (leaf, position) order
        # so repeated seals of the same build are deterministic.
        unresolved = present & (codes == NO_CODE)
        count = int(np.count_nonzero(unresolved))
        if count:
            codes[unresolved] = index.private_codes(count)
        code_map[leaf_index] = codes
    return code_map, zero_elided


def codes_at(code_map: dict[int, np.ndarray], vpns: np.ndarray) -> np.ndarray:
    """The :func:`seal_codes` code of each vpn (``NO_CODE`` where its leaf
    has none)."""
    codes = np.zeros(vpns.size, dtype=np.int64)
    if not code_map or not vpns.size:
        return codes
    leaves = np.fromiter(code_map.keys(), dtype=np.int64, count=len(code_map))
    order = np.argsort(leaves)
    leaves = leaves[order]
    table = np.stack(list(code_map.values()))[order]
    row = np.searchsorted(leaves, vpns // PTES_PER_LEAF)
    found = row < leaves.size
    found[found] = leaves[row[found]] == vpns[found] // PTES_PER_LEAF
    codes[found] = table[row[found], vpns[found] % PTES_PER_LEAF]
    return codes


class ChunkInterner:
    """Seal-side intern loop with crash-safe unwind.

    For each present page the mechanism hands us its content code; we
    answer with the frame to map — an adopted existing chunk on an index
    hit, a freshly allocated (and registered) frame on a miss.  Within one
    checkpoint a physical frame is mapped at most once: ``FrameAllocator``'s
    vectorized get/put apply duplicate frames in one call only once, so a
    twice-mapped frame would silently corrupt the refcount audit.  The
    later occurrence (in seal order) falls back to a private frame instead.
    """

    def __init__(self, index: ChunkIndex, fabric) -> None:
        self.index = index
        self.fabric = fabric
        self._used: set[int] = set()
        self._adopted: list[int] = []
        self._registered: list[int] = []
        self.shared_pages = 0
        self.new_pages = 0

    def adopt_only(self, codes: np.ndarray) -> np.ndarray:
        """Adopt the existing chunks for ``codes`` with one index lookup
        and one ``adopt``; returns the adopted frames, :data:`MISS` for
        misses.  A hit is dropped (becomes a miss) when an earlier call of
        this seal already mapped its frame, or an earlier slot of this one
        did.  criu-cxl seals through this alone: it stores missed pages in
        its image files, not standalone frames."""
        codes = np.asarray(codes, dtype=np.int64)
        frames = self.index.lookup(codes)
        if _mutation.ALIAS_WRONG_CHUNK.active():
            # Seeded bug: the seal maps hits into the *wrong* hash bucket —
            # some other chunk's frame — while recording the intended code.
            # The oracle's chunk-code cross-check must catch the restored
            # child reading another page's bytes.
            wrong = self.index.wrong_frame_for(codes)
            frames = np.where((frames != MISS) & (wrong != MISS), wrong, frames)
        slots = np.flatnonzero(frames != MISS)
        if slots.size:
            hits = frames[slots]
            _, first = np.unique(hits, return_index=True)
            dropped = np.ones(slots.size, dtype=bool)
            dropped[first] = False
            dropped |= np.fromiter(
                map(self._used.__contains__, hits.tolist()),
                dtype=bool, count=hits.size,
            )
            frames[slots[dropped]] = MISS
            adopted = frames[slots[~dropped]]
            if adopted.size:
                self.index.adopt(adopted)
                adopted = adopted.tolist()
                self._adopted.extend(adopted)
                self._used.update(adopted)
                self.shared_pages += len(adopted)
        return frames

    def intern_leaf(self, codes: np.ndarray) -> np.ndarray:
        """Resolve one leaf's present-page codes to frames (in order)."""
        codes = np.asarray(codes, dtype=np.int64)
        frames = self.adopt_only(codes)
        miss = frames == MISS
        count = int(np.count_nonzero(miss))
        if count:
            # One allocation per leaf, in slot order: the free list hands
            # out recycled frames from its end, so batching leaves together
            # would change which frame each page gets.
            fresh = self.fabric.alloc_frames(count)
            frames[miss] = fresh
            self.index.register(codes[miss], fresh)
            fresh = fresh.tolist()
            self._used.update(fresh)
            self._registered.extend(fresh)
            self.new_pages += count
        return frames

    def finish(self) -> None:
        TRACE.count("dedup.shared_pages", self.shared_pages)
        TRACE.count("dedup.new_chunks", self.new_pages)

    def abort(self) -> None:
        """Crash-consistency: unwind the *index* effects of a failed seal.

        Registered entries drop to zero sharers and evict; adopted frames
        drop their sharer record.  Frame references are the caller's to
        unwind — every interned frame (adopted or fresh) is in the
        mechanism's crash-path frame list, whose single ``put_frames``
        drops exactly the one reference each carries (alloc or adopt).
        """
        touched = np.asarray(self._registered + self._adopted, dtype=np.int64)
        if touched.size:
            self.index.release(touched)
        self._adopted.clear()
        self._registered.clear()


__all__ = ["ChunkInterner", "codes_at", "seal_codes"]
