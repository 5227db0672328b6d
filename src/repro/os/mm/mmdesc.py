"""The memory descriptor (Linux ``mm_struct`` analogue).

Owns a process's VMA tree and page table, hands out virtual address ranges,
and provides the accounting the experiments report (local RSS vs CXL-mapped
pages — Fig. 7b's "local memory consumption").
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.os.mm.pagetable import PageTable
from repro.os.mm.pte import PteFlags, ptes_flag_mask
from repro.os.mm.vma import Vma, VmaKind, VmaPerms, VmaTree

#: Where the bump allocator for new mappings starts (arbitrary but nonzero,
#: so vpn 0 stays invalid like a real NULL page).
MMAP_BASE_VPN = 0x10000
#: Gap left between consecutive mappings (guard pages).
MMAP_GUARD_PAGES = 1


class MemoryDescriptor:
    """Per-process address space: VMA tree + page table + accounting."""

    def __init__(self) -> None:
        self.vmas = VmaTree()
        self.pagetable = PageTable()
        self._mmap_cursor = MMAP_BASE_VPN
        #: Local DRAM pages allocated on this process's behalf (its *own*
        #: memory cost on the node, the Fig. 7b metric).  Maintained by the
        #: kernel as it allocates/frees frames for this address space.
        self.owned_local_pages = 0
        #: Frame arrays allocated for this process, returned to the node
        #: pool at exit.
        self.owned_frame_chunks: list = []
        #: Set when this address space is backed by a CXL checkpoint
        #: (a ``CheckpointBacking``); None for ordinary processes.
        self.ckpt_backing = None

    # -- address-space layout ------------------------------------------------

    def reserve_range(self, npages: int) -> int:
        """Reserve a fresh virtual range; returns its start vpn."""
        if npages <= 0:
            raise ValueError(f"need at least one page: {npages}")
        start = self._mmap_cursor
        self._mmap_cursor += npages + MMAP_GUARD_PAGES
        return start

    def note_range_used(self, start_vpn: int, npages: int) -> None:
        """Advance the bump cursor past an externally chosen range
        (used when attaching a checkpointed layout verbatim)."""
        end = start_vpn + npages + MMAP_GUARD_PAGES
        if end > self._mmap_cursor:
            self._mmap_cursor = end

    def add_vma(
        self,
        npages: int,
        perms: VmaPerms,
        *,
        kind: VmaKind = VmaKind.ANON,
        path: Optional[str] = None,
        file_offset_pages: int = 0,
        label: str = "",
        start_vpn: Optional[int] = None,
    ) -> Vma:
        """Create and insert a VMA; the page table is populated by faults."""
        if start_vpn is None:
            start_vpn = self.reserve_range(npages)
        else:
            self.note_range_used(start_vpn, npages)
        vma = Vma(
            start_vpn=start_vpn,
            npages=npages,
            perms=perms,
            kind=kind,
            path=path,
            file_offset_pages=file_offset_pages,
            label=label,
        )
        self.vmas.insert(vma)
        return vma

    def find_vma(self, vpn: int) -> Optional[Vma]:
        return self.vmas.find(vpn)

    # -- accounting ------------------------------------------------------------

    def mapped_pages(self) -> int:
        """All present PTEs."""
        return self.pagetable.count_present()

    def rss_split(self) -> tuple[int, int]:
        """``(local_pages, cxl_pages)`` among present mappings."""
        local = 0
        cxl = 0
        present_cxl = int(PteFlags.PRESENT) | int(PteFlags.CXL)
        for _, leaf in self.pagetable.leaves():
            present = ptes_flag_mask(leaf.ptes, PteFlags.PRESENT)
            on_cxl = ptes_flag_mask(leaf.ptes, present_cxl)
            cxl += int(np.count_nonzero(on_cxl))
            local += int(np.count_nonzero(present)) - int(np.count_nonzero(on_cxl))
        return local, cxl

    def local_rss_pages(self) -> int:
        """Local-DRAM data pages (what Fig. 7b charges a child process)."""
        return self.rss_split()[0]

    def cxl_mapped_pages(self) -> int:
        return self.rss_split()[1]

    # -- teardown helpers ----------------------------------------------------------


__all__ = ["MemoryDescriptor", "MMAP_BASE_VPN"]
