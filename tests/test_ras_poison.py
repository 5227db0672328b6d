"""RAS poison/page-offline semantics: allocator containment + injection."""

import pytest

from repro.cxl.allocator import FrameAllocator
from repro.faults import FaultInjector


def _pool(capacity=64):
    return FrameAllocator("ras", base=1000, capacity_frames=capacity)


class TestPoisonContainment:
    def test_poison_free_frame_offlines_immediately(self):
        pool = _pool()
        frames = pool.alloc_many(4)
        pool.put(frames)  # back on the free list
        assert pool.poison(frames[:2]) == 2
        assert pool.offlined_frames == 2
        assert not pool.has_poison  # nothing allocated is poisoned
        assert pool.free_frames == pool.capacity_frames - 2

    def test_poison_allocated_frame_stays_mapped(self):
        pool = _pool()
        frames = pool.alloc_many(4)
        assert pool.poison(frames[:1]) == 1
        assert pool.has_poison
        assert pool.poisoned_in(frames).tolist() == [int(frames[0])]
        # The owner still holds its reference (hardware poison model:
        # the mapping survives, the contents are garbage).
        assert pool.refcounts(frames[:1]).tolist() == [1]

    def test_last_put_offlines_a_poisoned_frame(self):
        pool = _pool()
        frames = pool.alloc_many(2)
        pool.poison(frames)
        pool.put(frames)
        assert pool.offlined_frames == 2
        assert not pool.has_poison

    def test_offlined_frames_are_never_recycled(self):
        pool = _pool(capacity=8)
        frames = pool.alloc_many(8)
        pool.poison(frames[:3])
        pool.put(frames)
        offlined = {int(f) for f in frames[:3]}
        survivors = pool.alloc_many(pool.free_frames)
        assert offlined.isdisjoint(int(f) for f in survivors)
        assert pool.free_frames == 0

    def test_poison_never_allocated_frame_rejected(self):
        pool = _pool()
        pool.alloc_many(2)
        with pytest.raises(ValueError):
            pool.poison([1000 + 50])  # beyond the bump pointer

    def test_quarantined_pool_ignores_poison(self):
        pool = _pool()
        frames = pool.alloc_many(2)
        pool.quarantine()
        assert pool.poison(frames) == 0

    def test_double_poison_is_idempotent(self):
        pool = _pool()
        frames = pool.alloc_many(2)
        assert pool.poison(frames) == 2
        assert pool.poison(frames) == 0

    def test_clear_poison_unflags(self):
        pool = _pool()
        frames = pool.alloc_many(2)
        pool.poison(frames)
        assert pool.clear_poison(frames) == 2
        assert not pool.has_poison
        assert pool.poisoned_in(frames).size == 0

    def test_poison_rate_counts_live_and_offlined(self):
        pool = _pool(capacity=10)
        frames = pool.alloc_many(4)
        pool.poison(frames[:2])  # live poisoned
        pool.put(frames[2:3])
        pool.poison(frames[2:3])  # offlined via the free path
        assert pool.poison_rate == pytest.approx(3 / 10)

    def test_poisoned_in_membership(self):
        pool = _pool()
        frames = pool.alloc_many(6)
        pool.poison(frames[1:3])
        bad = pool.poisoned_in(frames)
        assert bad.tolist() == sorted(int(f) for f in frames[1:3])
        # Clean pools answer without building anything.
        clean = _pool()
        held = clean.alloc_many(4)
        assert clean.poisoned_in(held).size == 0


class TestAuditWithOffline:
    def test_offlined_frames_audit_clean(self):
        pool = _pool()
        frames = pool.alloc_many(4)
        pool.poison(frames[:2])
        pool.put(frames)
        report = pool.audit({})
        assert report.clean
        assert report.leaked_frames == 0
        assert report.offlined == sorted(int(f) for f in frames[:2])

    def test_live_poisoned_frames_still_need_owners(self):
        pool = _pool()
        frames = pool.alloc_many(2)
        pool.poison(frames)
        # Still allocated: an owner must claim them or they are leaks.
        assert not pool.audit({}).clean
        expected = {int(f): 1 for f in frames}
        assert pool.audit(expected).clean


class TestInjectorPoison:
    def test_poison_range_counts_newly_flagged(self):
        pool = _pool()
        frames = pool.alloc_many(4)
        injector = FaultInjector(seed=5)
        assert injector.poison_range(pool, frames[:2]) == 2
        assert injector.poison_range(pool, [int(frames[0])]) == 0

    def test_poison_random_is_seed_deterministic(self):
        pool_a, pool_b, pool_c = _pool(), _pool(), _pool()
        a = FaultInjector(seed=7).poison_random(pool_a, pool_a.alloc_many(32), 0.25)
        b = FaultInjector(seed=7).poison_random(pool_b, pool_b.alloc_many(32), 0.25)
        assert a.tolist() == b.tolist()
        assert a.size == 8
        c = FaultInjector(seed=8).poison_random(pool_c, pool_c.alloc_many(32), 0.25)
        assert c.tolist() != a.tolist()

    def test_poison_random_hits_at_least_one(self):
        pool = _pool()
        frames = pool.alloc_many(4)
        chosen = FaultInjector(seed=1).poison_random(pool, frames, 0.001)
        assert chosen.size == 1
        assert pool.has_poison

    def test_poison_random_zero_rate_is_a_noop(self):
        pool = _pool()
        frames = pool.alloc_many(4)
        chosen = FaultInjector(seed=1).poison_random(pool, frames, 0.0)
        assert chosen.size == 0
        assert not pool.has_poison

    def test_poison_at_fires_mid_advance(self):
        from repro.sim.clock import Clock

        pool = _pool()
        frames = pool.alloc_many(4)
        clock = Clock()
        injector = FaultInjector(seed=3)
        injector.poison_at(clock, pool, 100, count=2)
        assert not pool.has_poison
        clock.advance(500)  # silent: the alarm never raises
        assert pool.poisoned_in(frames).size == 2

    def test_poison_allocated_picks_only_live_frames(self):
        pool = _pool()
        frames = pool.alloc_many(3)
        pool.put(frames[2:])  # freed frame is not a candidate
        injector = FaultInjector(seed=11)
        assert injector.poison_allocated(pool, count=3) == 2
        assert pool.poisoned_in(frames[:2]).size == 2
