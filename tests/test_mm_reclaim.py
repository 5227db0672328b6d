"""Direct reclaim: victim ordering, page-cache dropping, PIN exclusion."""

import pytest

from repro.cxl.allocator import OutOfMemoryError
from repro.experiments.common import make_pod, prepare_parent
from repro.os.mm.pte import PteFlags
from repro.rfork.cxlfork import CxlFork
from repro.sim.units import GIB


class TestReclaimer:
    def test_page_cache_dropped_under_pressure(self, node0):
        reclaimable = 1000
        node0.pagecache.ensure_range("/lib/cold.so", 0, reclaimable)
        headroom = node0.dram.free_frames
        node0.dram.alloc_many(headroom)  # fill the node
        # This allocation only succeeds if reclaim drops the page cache.
        frames = node0.dram.alloc_many(500)
        assert frames.size == 500
        assert node0.pagecache.cached_pages("/lib/cold.so") == 0
        assert node0.reclaimer.reclaim_events >= 1

    def test_mapped_file_pages_survive_reclaim(self, kernel, node0):
        task = kernel.spawn_task("holder")
        kernel.map_file_region(task, "/lib/held.so", 200, populate=True)
        node0.pagecache.ensure_range("/lib/loose.so", 0, 200)
        node0.dram.alloc_many(node0.dram.free_frames)
        node0.dram.alloc_many(100)  # triggers reclaim of both files' caches
        # The mapped file's frames survive through the mapping references.
        assert task.mm.mapped_pages() == 200

    def test_victims_asked_before_page_cache(self, node0):
        calls = []
        node0.pagecache.ensure_range("/lib/cache.so", 0, 100)

        def victim(shortfall):
            calls.append(shortfall)
            return 0  # frees nothing; reclaim falls through to page cache

        node0.reclaimer.register_victim_source(victim)
        node0.dram.alloc_many(node0.dram.free_frames)
        node0.dram.alloc_many(50)
        assert calls  # the victim ran
        assert node0.pagecache.cached_pages("/lib/cache.so") == 0

    def test_oom_when_nothing_reclaimable(self, node0):
        node0.dram.alloc_many(node0.dram.free_frames)
        with pytest.raises(OutOfMemoryError):
            node0.dram.alloc_many(1)

    def test_zero_shortfall(self, node0):
        assert not node0.reclaimer.reclaim(0)


class TestPinExclusion:
    def test_checkpointed_state_survives_node_reclaim(self):
        """§4.3: checkpointed (PIN) pages are excluded from reclaim — a
        node under pressure cannot eat the pod's shared checkpoints."""
        pod = make_pod(dram_bytes=2 * GIB)
        parent = prepare_parent(pod, "float")
        ckpt, _ = CxlFork().checkpoint(parent.instance.task)
        pinned = ckpt.pagetable.count_flag(int(PteFlags.PIN))
        assert pinned == ckpt.present_pages
        cxl_used = pod.fabric.used_bytes
        # Exhaust the target node's DRAM repeatedly, forcing reclaim.
        node = pod.target
        node.pagecache.ensure_range("/lib/filler.so", 0, 1000)
        node.dram.alloc_many(node.dram.free_frames)
        with pytest.raises(OutOfMemoryError):
            node.dram.alloc_many(10_000_000)
        assert pod.fabric.used_bytes == cxl_used  # checkpoint untouched
        assert ckpt.pagetable.count_flag(int(PteFlags.PIN)) == pinned
