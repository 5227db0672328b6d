"""FrameAllocator.audit / audit_pod regressions: demand-zero pages,
checkpoint frames shared by children across nodes, and the array audits
against the per-frame dict references they replaced."""

import numpy as np

from repro.cxl.allocator import FrameAllocator, LeakReport, RefCounts
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
        wrong = dict(cxl_expected)
        wrong[frame] = wrong.get(frame, 0) + 1
        assert not frames.audit(wrong).clean


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


# -- the array audits against dict references kept here -----------------------


def _dict_pool_audit(pool, expected):
    """Reference: the per-frame dict audit the array one replaces."""
    report = LeakReport(pool=pool.name)
    if pool.quarantined:
        return report
    live = np.nonzero(pool._refcount[: pool._bump] > 0)[0]
    actual = {int(i) + pool.base: int(pool._refcount[i]) for i in live}
    for frame, count in actual.items():
        want = expected.get(frame)
        if want is None:
            report.leaked.append(frame)
        elif want != count:
            report.mismatched[frame] = (count, int(want))
    for frame in expected:
        if frame not in actual and pool.owns(frame):
            report.missing.append(frame)
    report.leaked.sort()
    report.missing.sort()
    report.offlined = sorted(pool.base + i for i in pool._offlined)
    return report


def _as_tuple(report):
    return (report.pool, report.leaked, list(report.mismatched.items()),
            report.missing, report.offlined)


class TestArrayAuditEquivalence:
    def _pool(self):
        pool = FrameAllocator("unit", base=1000, capacity_frames=256)
        frames = pool.alloc_many(40)
        pool.get(frames[:10])
        pool.put(frames[30:35])  # freed: the free list, not live
        pool.poison(frames[35:37])  # poisoned, still allocated
        pool.put(frames[35:36])  # last reference drops: offlined
        pool.poison(frames[31:32])  # freed, then poisoned: offlined
        return pool, frames

    def _expected(self, frames):
        exact = {int(f): 2 for f in frames[:10]}
        exact.update({int(f): 1 for f in frames[10:30]})
        exact.update({int(f): 1 for f in frames[36:]})
        return exact

    def _check(self, pool, expected):
        want = _as_tuple(_dict_pool_audit(pool, expected))
        assert _as_tuple(pool.audit(expected)) == want
        assert _as_tuple(pool.audit(RefCounts.of_mapping(expected))) == want
        return want

    def test_clean(self):
        pool, frames = self._pool()
        _, leaked, mismatched, missing, offlined = self._check(
            pool, self._expected(frames)
        )
        assert not (leaked or mismatched or missing)
        assert offlined

    def test_leaked_missing_mismatched_foreign(self):
        pool, frames = self._pool()
        expected = self._expected(frames)
        del expected[int(frames[12])]  # leaked
        del expected[int(frames[3])]  # leaked, though shared
        expected[int(frames[5])] = 1  # mismatched: 2 held
        expected[int(frames[20])] = 3  # mismatched: 1 held
        expected[int(frames[32])] = 1  # missing: freed
        expected[int(frames[35])] = 1  # missing: offlined
        expected[pool.base + 200] = 1  # missing: never allocated
        expected[5] = 1  # foreign: another pool's frame
        expected[pool.limit + 3] = 2  # foreign, past this pool
        _, leaked, mismatched, missing, _ = self._check(pool, expected)
        assert leaked == sorted([int(frames[3]), int(frames[12])])
        assert [f for f, _ in mismatched] == [int(frames[5]), int(frames[20])]
        assert missing == sorted(
            [int(frames[32]), int(frames[35]), pool.base + 200]
        )

    def test_quarantined(self):
        pool, frames = self._pool()
        pool.quarantine()
        assert self._check(pool, {}) == ("unit", [], [], [], [])

    def test_pod_audit_matches_dict_reference(self, pod, checkpointed):
        _, _, _, ckpt, _ = checkpointed
        cxl_expected, dram_expected = expected_refcounts(
            pod.fabric, pod.nodes, cxlfs=pod.cxlfs, checkpoints=[ckpt]
        )
        pools = [(pod.fabric.device.frames, cxl_expected)] + [
            (node.dram, dram_expected[node.name]) for node in pod.nodes
        ]
        for pool, expected in pools:
            assert len(expected) == len(dict(expected))
            self._check(pool, dict(expected))
            # Drop one owner: its frames read as leaked in both audits.
            if len(expected):
                fewer = dict(expected)
                fewer.pop(next(iter(fewer)))
                assert self._check(pool, fewer)[1]


def _dict_chunk_audit(index, checkpoints):
    """Reference: the per-frame dict census the array one replaces."""
    problems = []
    for code, frame in index._frame_by_code.items():
        if index._code_by_frame.get(frame) != code:
            problems.append(
                f"chunk map asymmetry: code {code} -> frame {frame} "
                f"but frame maps to {index._code_by_frame.get(frame)}"
            )
    census = {}
    for ckpt in checkpoints:
        if getattr(ckpt, "_deleted", False):
            continue
        frames = getattr(ckpt, "data_frames", None)
        if frames is None:
            frames = getattr(ckpt, "chunk_frames", None)
        if frames is None or not len(frames):
            continue
        for frame in np.asarray(frames, dtype=np.int64).tolist():
            if frame in index._code_by_frame:
                census[frame] = census.get(frame, 0) + 1
    for frame, sharers in index._sharers.items():
        owned = census.get(frame, 0)
        if owned != sharers:
            problems.append(
                f"chunk frame {frame} (code {index._code_by_frame[frame]}): "
                f"{sharers} recorded sharers but {owned} live checkpoint(s) "
                "list it"
            )
    for frame in census:
        if frame not in index._sharers:
            problems.append(f"frame {frame} is indexed but has no sharer record")
    return problems


class _Listing:
    def __init__(self, frames, attr="data_frames"):
        setattr(self, attr, np.asarray(frames, dtype=np.int64))


def test_chunk_audit_messages_match_dict_reference(fabric):
    index = fabric.chunk_index
    frames = fabric.alloc_frames(8).tolist()
    index.register(np.arange(701, 709), frames)
    index.adopt(frames[:3])
    listings = [
        _Listing(frames[:5] + [frames[2]]),  # frame 2 listed twice
        _Listing(frames[1:4], attr="chunk_frames"),
        _Listing(frames[6:]),
    ]
    assert index.audit(listings) == _dict_chunk_audit(index, listings)
    # Corrupt the maps: an asymmetric entry, and indexed frames with no
    # sharer record, listed out of frame order.
    index._code_by_frame[frames[4]] = 999
    del index._sharers[frames[7]]
    del index._sharers[frames[5]]
    index._lookup_cache = None
    listings.append(_Listing([frames[7], frames[5], frames[7]]))
    problems = index.audit(listings)
    assert problems == _dict_chunk_audit(index, listings)
    assert any("asymmetry" in p for p in problems)
    assert sum("no sharer record" in p for p in problems) == 2
