"""Memory descriptor: layout, RSS accounting."""

import numpy as np
import pytest

from repro.os.mm.mmdesc import MemoryDescriptor
from repro.os.mm.pte import PteFlags
from repro.os.mm.vma import VmaPerms


class TestLayout:
    def test_reserve_disjoint_ranges(self):
        mm = MemoryDescriptor()
        a = mm.reserve_range(100)
        b = mm.reserve_range(100)
        assert b >= a + 100

    def test_reserve_invalid(self):
        with pytest.raises(ValueError):
            MemoryDescriptor().reserve_range(0)

    def test_add_vma_auto_placement(self):
        mm = MemoryDescriptor()
        v1 = mm.add_vma(10, VmaPerms.READ | VmaPerms.WRITE)
        v2 = mm.add_vma(10, VmaPerms.READ | VmaPerms.WRITE)
        assert not v1.overlaps(v2.start_vpn, v2.npages)

    def test_add_vma_fixed_placement(self):
        mm = MemoryDescriptor()
        v = mm.add_vma(10, VmaPerms.READ, start_vpn=0x50000)
        assert v.start_vpn == 0x50000
        after = mm.add_vma(10, VmaPerms.READ)
        assert after.start_vpn > v.end_vpn

    def test_find_vma(self):
        mm = MemoryDescriptor()
        v = mm.add_vma(10, VmaPerms.READ, label="x")
        assert mm.find_vma(v.start_vpn + 5).label == "x"
        assert mm.find_vma(1) is None


class TestAccounting:
    def test_rss_split_by_tier(self):
        from repro.cxl.device import CXL_FRAME_BASE

        mm = MemoryDescriptor()
        mm.add_vma(20, VmaPerms.READ | VmaPerms.WRITE, start_vpn=0)
        local = np.arange(10, dtype=np.int64)
        cxl = np.arange(CXL_FRAME_BASE, CXL_FRAME_BASE + 10, dtype=np.int64)
        mm.pagetable.map_range(0, local, int(PteFlags.PRESENT))
        mm.pagetable.map_range(10, cxl, int(PteFlags.PRESENT | PteFlags.CXL))
        assert mm.rss_split() == (10, 10)
        assert mm.local_rss_pages() == 10
        assert mm.cxl_mapped_pages() == 10

    def test_local_footprint_includes_tables(self):
        mm = MemoryDescriptor()
        mm.add_vma(10, VmaPerms.READ | VmaPerms.WRITE, start_vpn=0)
        mm.pagetable.map_range(
            0, np.arange(10, dtype=np.int64), int(PteFlags.PRESENT)
        )
        assert mm.pagetable.local_table_pages() > 0
