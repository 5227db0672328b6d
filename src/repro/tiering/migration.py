"""Online promotion: migrate a running instance's hot CXL pages to local.

When CXLporter promotes a function to hybrid tiering, instances restored
earlier under migrate-on-write still map their read-only state on the CXL
tier.  The runtime fixes them up in the background: pages whose Accessed
bit is set (they are being used) are copied into local DRAM.  Cold pages
stay shared on CXL, preserving deduplication.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.os.kernel import Kernel
from repro.os.mm.pte import PTE_FRAME_SHIFT, PteFlags, make_ptes
from repro.os.proc.task import Task
from repro.sim.units import PAGE_SIZE
from repro.telemetry import TRACE


@dataclass(frozen=True)
class MigrationResult:
    """What one promotion pass moved."""

    pages: int
    background_ns: float


def migrate_hot_pages(kernel: Kernel, task: Task) -> MigrationResult:
    """Copy accessed CXL-mapped pages of ``task`` into local memory.

    Returns the page count and the background time (charged off the
    request critical path).  Safe to call repeatedly; a second pass finds
    nothing new unless fresh pages were accessed.
    """
    latency = kernel.latency
    backing = task.mm.ckpt_backing
    holds_refs = backing is None or backing.holds_frame_refs
    total_pages = 0
    total_ns = 0.0
    hot_flags = np.int64(
        int(PteFlags.PRESENT) | int(PteFlags.CXL) | int(PteFlags.ACCESSED)
    )
    for leaf_index in list(task.mm.pagetable.leaf_indices()):
        leaf = task.mm.pagetable.leaf(leaf_index)
        hot = (leaf.ptes & hot_flags) == hot_flags
        count = int(np.count_nonzero(hot))
        if count == 0:
            continue
        leaf, copied = task.mm.pagetable.privatize_leaf(leaf_index)
        if copied:
            total_ns += latency.page_copy_ns(src_cxl=True, dst_cxl=False)
        old_frames = (leaf.ptes[hot] >> PTE_FRAME_SHIFT).astype(np.int64)
        frames = kernel.alloc_local_frames(task, count)
        flags = PteFlags.PRESENT | PteFlags.WRITE | PteFlags.USER | PteFlags.ACCESSED
        leaf.ptes[hot] = make_ptes(frames, int(flags))
        if holds_refs:
            kernel.node.fabric.put_frames(old_frames)
        total_pages += count
        total_ns += latency.copy_ns(count * PAGE_SIZE, src_cxl=True, dst_cxl=False)
        total_ns += kernel.fault_costs.tlb.shootdown_cost_ns(count, batched=True)
    if TRACE.enabled and total_pages:
        TRACE.add_span(
            "tiering.migrate_hot_pages", kernel.clock.now, total_ns,
            clock=kernel.clock, comm=task.comm, pages=total_pages,
        )
        TRACE.count("tiering.migrated_pages", total_pages)
    return MigrationResult(pages=total_pages, background_ns=total_ns)


__all__ = ["migrate_hot_pages", "MigrationResult"]
