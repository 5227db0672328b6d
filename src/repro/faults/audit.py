"""Pod-wide frame-leak auditing.

Builds the *expected* refcount of every frame by walking the live owners —
task page tables, checkpoints, checkpoint heaps, in-CXL files, pinned
fabric regions, per-node page caches — and cross-checks it against what
the frame pools actually hold (:meth:`FrameAllocator.audit`).  A crash at
any virtual-time point must leave this audit clean: that is the acceptance
invariant of the failure sweep.

Ownership rules mirror ``Kernel.exit_task`` exactly:

* a present PTE with the CXL flag holds one reference on its CXL frame,
  unless the task's checkpoint backing has ``holds_frame_refs=False``
  (Mitosis children pull from the parent's shadow without refs);
* a present PTE without the CXL flag holds one reference on its node's
  DRAM frame;
* a CXLfork checkpoint holds the allocation reference on its data frames
  and its metadata heap's backing frames;
* a Mitosis checkpoint holds the allocation reference on its shadow
  frames in the *parent* node's DRAM;
* CRIU checkpoints own nothing directly — their image files are owned by
  the shared :class:`~repro.os.fs.cxlfs.CxlFileSystem`, which is walked
  independently;
* page caches hold one reference per cached page; pinned fabric regions
  one per frame;
* dedup'd criu-cxl checkpoints hold one reference per adopted chunk frame
  (``chunk_frames``) — cxlfork adopted frames already ride in
  ``data_frames`` with multiplicity.

When a :class:`~repro.dedup.chunkindex.ChunkIndex` is in play the audit
additionally cross-checks its sharer census against the live checkpoints
(:meth:`ChunkIndex.audit`): every indexed frame's sharer count must equal
the number of live checkpoints listing it, and the code→frame /
frame→code maps must be exact inverses.

Quarantined pools (dead nodes) report clean: their memory died with the
node and stale references against them are no-ops by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.cxl.allocator import LeakReport, RefCounts
from repro.os.mm.pte import PTE_FRAME_SHIFT, PteFlags

if TYPE_CHECKING:  # pragma: no cover
    from repro.cxl.fabric import CxlFabric
    from repro.os.node import ComputeNode

_PRESENT = np.int64(int(PteFlags.PRESENT))
_CXL = np.int64(int(PteFlags.CXL))


def _task_frame_refs(task) -> tuple[np.ndarray, np.ndarray]:
    """(cxl_frames, local_frames) referenced by one task's page table.

    Returns the frames with multiplicity — a frame mapped twice contributes
    twice — matching the references ``exit_task`` would drop.
    """
    cxl_chunks: list[np.ndarray] = []
    local_chunks: list[np.ndarray] = []
    for _, leaf in task.mm.pagetable.leaves():
        present = (leaf.ptes & _PRESENT) != 0
        if not np.any(present):
            continue
        frames = (leaf.ptes[present] >> np.int64(PTE_FRAME_SHIFT)).astype(np.int64)
        if leaf.cxl_resident:
            cxl_chunks.append(frames)
            continue
        on_cxl = (leaf.ptes[present] & _CXL) != 0
        if np.any(on_cxl):
            cxl_chunks.append(frames[on_cxl])
        local = frames[~on_cxl]
        if local.size:
            local_chunks.append(local)
    cxl = np.concatenate(cxl_chunks) if cxl_chunks else np.empty(0, dtype=np.int64)
    local = (
        np.concatenate(local_chunks) if local_chunks else np.empty(0, dtype=np.int64)
    )
    return cxl, local


def expected_refcounts(
    fabric: "CxlFabric",
    nodes: Iterable["ComputeNode"],
    *,
    cxlfs=None,
    checkpoints: Iterable = (),
    ghost_pools: Iterable = (),
) -> tuple[RefCounts, dict[str, RefCounts]]:
    """Build the owner-derived refcount model.

    Returns ``(cxl_expected, dram_expected)`` where ``cxl_expected`` holds
    the expected count of every referenced CXL frame and ``dram_expected``
    maps node name -> the same for that node's DRAM pool.  Every owner
    contributes its frame array with multiplicity; each pool's arrays are
    counted once at the end.
    """
    cxl: list[np.ndarray] = []
    dram: dict[str, list[np.ndarray]] = {n.name: [] for n in nodes}

    # Pinned fabric regions (e.g. the porter object-store directory).
    cxl.extend(fabric._regions.values())

    # In-CXL file system (CRIU images and anything else written there).
    if cxlfs is not None:
        cxl.extend(cxlfs.stat(path).frames for path in cxlfs.listdir())

    # Checkpoints (duck-typed across the three mechanisms).
    for ckpt in checkpoints:
        if getattr(ckpt, "_deleted", False):
            continue
        data_frames = getattr(ckpt, "data_frames", None)
        if data_frames is not None:
            cxl.append(data_frames)
        heap = getattr(ckpt, "heap", None)
        if heap is not None:
            cxl.append(heap.backing_frames)
        shared_chunks = getattr(ckpt, "chunk_frames", None)
        if shared_chunks is not None:
            cxl.append(shared_chunks)
        shadow = getattr(ckpt, "shadow_frames", None)
        if shadow is not None:
            parent = ckpt.parent_node
            if not parent.failed:
                dram.setdefault(parent.name, []).append(shadow)

    # Ghost-container pools reserve each ghost's bare 512 KB from its
    # node's DRAM (porter deployments).
    for pool in ghost_pools:
        if pool.node.failed:
            continue
        dram.setdefault(pool.node.name, []).extend(
            ghost.reserved_frames for ghost in pool._all
        )

    # Live tasks: page-table mappings, per-node page caches.
    for node in nodes:
        node_dram = dram.setdefault(node.name, [])
        if node.failed:
            continue  # quarantined pool; kernel has no tasks anyway
        node_dram.extend(
            frames[cached] for cached, frames in node.pagecache._files.values()
        )
        for task in node.kernel.tasks():
            cxl_frames, local_frames = _task_frame_refs(task)
            backing = task.mm.ckpt_backing
            if backing is None or backing.holds_frame_refs:
                cxl.append(cxl_frames)
            node_dram.append(local_frames)
    return RefCounts.of(cxl), {
        name: RefCounts.of(chunks) for name, chunks in dram.items()
    }


@dataclass
class PodAudit:
    """Leak reports for the CXL pool and every node's DRAM pool.

    ``dedup_mismatches`` lists chunk-index bookkeeping errors (sharer count
    vs live-checkpoint census, map asymmetry) — a non-empty list fails the
    audit exactly like a leaked frame.
    """

    reports: list[LeakReport] = field(default_factory=list)
    dedup_mismatches: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return all(r.clean for r in self.reports) and not self.dedup_mismatches

    @property
    def leaked_frames(self) -> int:
        return sum(r.leaked_frames for r in self.reports)

    def describe(self) -> str:
        if self.clean:
            return "audit clean: no leaked frames"
        parts = [r.describe() for r in self.reports if not r.clean]
        parts.extend(f"dedup: {m}" for m in self.dedup_mismatches)
        return "; ".join(parts)


def audit_pod(
    fabric: "CxlFabric",
    nodes: Iterable["ComputeNode"],
    *,
    cxlfs=None,
    checkpoints: Iterable = (),
    ghost_pools: Iterable = (),
    chunk_index=None,
) -> PodAudit:
    """Cross-check every pool's refcounts against the live-owner model.

    ``checkpoints`` must list every checkpoint the caller considers live
    (not yet deleted); anything holding frames that is not enumerated here
    shows up as a leak — which is the point.  ``chunk_index``, when given,
    has its sharer census audited against the same checkpoint list.
    """
    nodes = list(nodes)
    checkpoints = list(checkpoints)
    cxl_expected, dram_expected = expected_refcounts(
        fabric, nodes, cxlfs=cxlfs, checkpoints=checkpoints, ghost_pools=ghost_pools
    )
    audit = PodAudit()
    audit.reports.append(fabric.device.frames.audit(cxl_expected))
    for node in nodes:
        audit.reports.append(node.dram.audit(dram_expected.get(node.name, {})))
    if chunk_index is not None:
        audit.dedup_mismatches.extend(chunk_index.audit(checkpoints))
    return audit


__all__ = ["PodAudit", "audit_pod", "expected_refcounts"]
