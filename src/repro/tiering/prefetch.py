"""Checkpoint-guided dirty-page prefetch (§4.2.1, "Optimizing CXL Page Faults").

CoW faults over CXL cost ~2.5 us each, ~500 ns of which is TLB shootdown.
Because >95% of the pages the parent wrote are written by its children too,
CXLfork prefetches checkpoint-*dirty* pages into local memory right after
restore, off the critical path.  Pages the prefetcher wins the race for
never CoW-fault; the child simply finds them local and writable.

We model the race with an ``effectiveness`` fraction: that share of dirty
pages is installed locally before the child writes them; the rest fault
normally.  The copy time is reported as ``background_ns`` and *not* charged
to the restore critical path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.os.kernel import Kernel
from repro.os.mm.pagetable import PTES_PER_LEAF, PageTable
from repro.os.mm.pte import PTE_FRAME_SHIFT, PteFlags, make_ptes, ptes_flag_mask
from repro.os.proc.task import Task
from repro.sim.units import PAGE_SIZE


@dataclass(frozen=True)
class PrefetchResult:
    """What a prefetch pass did."""

    pages: int
    background_ns: float


class DirtyPagePrefetcher:
    """Copies checkpoint-dirty pages into the child's local memory."""

    def __init__(self, effectiveness: float = 0.9) -> None:
        if not 0.0 <= effectiveness <= 1.0:
            raise ValueError(f"effectiveness must be in [0, 1]: {effectiveness}")
        self.effectiveness = effectiveness

    def _race_mask(self, n: int) -> np.ndarray:
        """Deterministic subset of size ~effectiveness * n, spread evenly."""
        if n == 0:
            return np.zeros(0, dtype=bool)
        wins = int(round(self.effectiveness * n))
        mask = np.zeros(n, dtype=bool)
        if wins > 0:
            mask[np.linspace(0, n - 1, wins).astype(np.int64)] = True
        return mask

    def dirty_specs(self, ckpt_pagetable: PageTable) -> list:
        """Precompute per-leaf ``(leaf_index, sel, count)`` selections.

        Safe to memoize across restores of one checkpoint (the restore-plan
        cache does): DIRTY bits on checkpointed leaves are stable after the
        seal — checkpoint PTEs never carry WRITE, so no child write can mark
        them dirty — and the race mask is a deterministic function of the
        dirty count and ``effectiveness``.
        """
        dirty_flag = int(PteFlags.PRESENT) | int(PteFlags.DIRTY)
        specs = []
        for leaf_index, ckpt_leaf in ckpt_pagetable.leaves():
            dirty = ptes_flag_mask(ckpt_leaf.ptes, dirty_flag)
            n_dirty = int(np.count_nonzero(dirty))
            if n_dirty == 0:
                continue
            won = self._race_mask(n_dirty)
            if not np.any(won):
                continue
            sel = np.zeros(PTES_PER_LEAF, dtype=bool)
            sel[np.nonzero(dirty)[0][won]] = True
            specs.append((leaf_index, sel, int(np.count_nonzero(sel))))
        return specs

    def prefetch(self, kernel: Kernel, task: Task, specs: list) -> PrefetchResult:
        """Install local copies of (a fraction of) checkpoint-dirty pages.

        ``specs`` is :meth:`dirty_specs` output (memoized on the restore
        plan); the per-child installs (privatize, allocate, map) stay live.
        """
        total_pages = 0
        total_ns = 0.0
        backing = task.mm.ckpt_backing
        holds_refs = backing is None or backing.holds_frame_refs
        for leaf_index, sel, count in specs:
            child_leaf, copied = None, False
            if task.mm.pagetable.has_leaf(leaf_index):
                child_leaf, copied = task.mm.pagetable.privatize_leaf(leaf_index)
            else:
                child_leaf = task.mm.pagetable.ensure_leaf(leaf_index)
            if copied:
                total_ns += kernel.latency.page_copy_ns(src_cxl=True, dst_cxl=False)

            frames = kernel.alloc_local_frames(task, count)
            old = child_leaf.ptes[sel]
            was_present_cxl = (
                (old & np.int64(int(PteFlags.PRESENT))) != 0
            ) & ((old & np.int64(int(PteFlags.CXL))) != 0)
            if np.any(was_present_cxl) and holds_refs:
                kernel.node.fabric.put_frames(
                    (old[was_present_cxl] >> PTE_FRAME_SHIFT).astype(np.int64)
                )
            flags = (
                PteFlags.PRESENT
                | PteFlags.WRITE
                | PteFlags.USER
                | PteFlags.ACCESSED
                | PteFlags.DIRTY
            )
            child_leaf.ptes[sel] = make_ptes(frames, int(flags))
            total_pages += count
            total_ns += kernel.latency.copy_ns(
                count * PAGE_SIZE, src_cxl=True, dst_cxl=False
            )
        return PrefetchResult(pages=total_pages, background_ns=total_ns)


__all__ = ["DirtyPagePrefetcher", "PrefetchResult"]
