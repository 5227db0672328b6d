"""Content-addressed checkpoint storage for the CXL pool (§2.2 density).

CXLfork's clones of *one* checkpoint already share frames; this package
extends the sharing across *different* checkpoints.  A per-fabric
:class:`~repro.dedup.chunkindex.ChunkIndex` maps a content code — the
simulator's stand-in for sha256(page bytes) — to the one physical frame
holding that content, with a per-frame sharer count.  Checkpoint seal
(cxlfork and criu-cxl) consults the index: a page whose content is already
resident resolves to the existing frame instead of a private copy, a page
that is all zeroes is elided entirely, and copy-on-write breaks a shared
frame out for a writing child exactly as it does today.

Like :data:`repro.ras.RAS`, deduplication is a :class:`repro.runtime.Switch`
(:data:`DEDUP`), but it defaults **off** and does *not* follow the
checker: dedup changes placement, the bench baselines pin dedup-off
results bit-identical to the pre-dedup tree, and experiments opt in per
run.

Content codes
-------------

The simulator models page *content* as oracle labels, not bytes (see
:mod:`repro.check.oracle`), so the "hash of the page" is derived from the
same ground truth the oracle checks against:

* a page already resident in an indexed CXL frame inherits that frame's
  code (re-checkpoints after seasoning share almost everything);
* a checkpoint-backed page realized locally by a read fault inherits the
  backing checkpoint's code for that vpn (same bytes, different frame);
* a provably file-pristine page (``FILE_PRIVATE``, never hardware-writable,
  never dirtied — the same predicate CRIU's dump uses) hashes its
  ``(path, pgoff)``, so independent checkpoints of the same function share
  their library and initialization-file images;
* everything else gets a fresh private code — conservative (two
  independently seasoned anonymous heaps never alias) but *sound*: a
  shared frame is never claimed for content the oracle could distinguish.

Non-present pages in anonymous mappings are the zero-page class: they are
structurally elided from every checkpoint (restore faults them demand-zero)
and counted, never stored — the degenerate chunk whose refcount is the
whole pod.
"""

from __future__ import annotations

from repro.dedup.chunkindex import MISS, NO_CODE, ChunkIndex, DedupStats
from repro.runtime import Switch


#: The process-wide dedup switch (see module docstring).
DEDUP = Switch("dedup")


__all__ = ["DEDUP", "ChunkIndex", "DedupStats", "MISS", "NO_CODE"]
