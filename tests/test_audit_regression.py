"""FrameAllocator.audit / audit_pod regressions: demand-zero pages and
checkpoint frames shared by children across nodes."""

import numpy as np

from repro.cxl.allocator import FrameAllocator
from repro.experiments.common import make_pod
from repro.faults.audit import audit_pod, expected_refcounts


class TestZeroPages:
    def test_demand_zero_faults_audit_clean(self, pod):
        """Anon read faults zero-fill fresh local frames; each is owned
        exactly once by its mapping task."""
        kernel = pod.source.kernel
        task = kernel.spawn_task("zeros")
        vma = kernel.map_anon_region(task, 64, label="lazy", populate=False)
        kernel.access_range(task, vma.start_vpn, 16, write=False)
        report = audit_pod(pod.fabric, pod.nodes, cxlfs=pod.cxlfs)
        assert report.clean, report.describe()

    def test_zero_pages_freed_on_exit(self, pod):
        kernel = pod.source.kernel
        used_before = pod.source.dram.allocated_frames
        task = kernel.spawn_task("zeros")
        vma = kernel.map_anon_region(task, 64, label="lazy", populate=False)
        kernel.access_range(task, vma.start_vpn, 16, write=False)
        kernel.exit_task(task)
        assert pod.source.dram.allocated_frames == used_before
        report = audit_pod(pod.fabric, pod.nodes, cxlfs=pod.cxlfs)
        assert report.clean, report.describe()


class TestCrossNodeSharedFrames:
    def test_checkpoint_shared_by_two_nodes(self):
        """Two children on two different nodes both reference the same
        immutable CXL frames; the owner model must count every mapper."""
        pod3 = make_pod(node_count=3)
        kernel = pod3.source.kernel
        task = kernel.spawn_task("shared")
        vma = kernel.map_anon_region(task, 128, label="data", populate=True)
        from repro.rfork.cxlfork import CxlFork

        ckpt, _ = CxlFork().checkpoint(task)
        mech = CxlFork()
        child_a = mech.restore(ckpt, pod3.nodes[1]).task
        child_b = mech.restore(ckpt, pod3.nodes[2]).task
        pod3.nodes[1].kernel.access_range(child_a, vma.start_vpn, 32, write=False)
        pod3.nodes[2].kernel.access_range(child_b, vma.start_vpn, 32, write=False)

        report = audit_pod(
            pod3.fabric, pod3.nodes, cxlfs=pod3.cxlfs, checkpoints=[ckpt]
        )
        assert report.clean, report.describe()

        # The shared data frames really are multiply referenced.
        counts = pod3.fabric.device.frames.refcounts(ckpt.data_frames)
        assert int(counts.max()) >= 2

    def test_audit_catches_wrong_expectation(self, pod, checkpointed):
        _, _, _, ckpt, _ = checkpointed
        frames = pod.fabric.device.frames
        cxl_expected, _ = expected_refcounts(
            pod.fabric, pod.nodes, cxlfs=pod.cxlfs, checkpoints=[ckpt]
        )
        assert frames.audit(cxl_expected).clean
        frame = int(ckpt.data_frames[0])
        cxl_expected[frame] = cxl_expected.get(frame, 0) + 1
        assert not frames.audit(cxl_expected).clean


class TestAllocatorAuditUnit:
    def test_refcounts_vectorized_matches_scalar(self):
        pool = FrameAllocator("unit", base=0, capacity_frames=128)
        frames = pool.alloc_many(8)
        pool.get(frames[:4])
        counts = pool.refcounts(frames)
        for i, frame in enumerate(frames):
            assert int(counts[i]) == pool.refcount(int(frame))
        # Frames beyond the lazily-grown refcount array read as zero.
        assert int(pool.refcounts(np.array([120], dtype=np.int64))[0]) == 0

    def test_live_frames_tracks_population(self):
        pool = FrameAllocator("unit", base=0, capacity_frames=128)
        frames = pool.alloc_many(8)
        assert pool.live_frames == 8
        pool.put(frames[:3])
        assert pool.live_frames == 5
        assert pool.allocated_frames == pool.live_frames
