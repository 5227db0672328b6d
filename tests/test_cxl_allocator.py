"""Frame allocator: alloc/free, refcounts, exhaustion."""

import numpy as np
import pytest

from repro.cxl.allocator import FrameAllocator, OutOfMemoryError


@pytest.fixture
def pool():
    return FrameAllocator("test", base=1000, capacity_frames=100)


class TestAllocation:
    def test_alloc_returns_frames_in_range(self, pool):
        frames = pool.alloc_many(10)
        assert frames.min() >= 1000
        assert frames.max() < 1100
        assert len(set(frames.tolist())) == 10

    def test_alloc_single(self, pool):
        frame = int(pool.alloc_many(1)[0])
        assert pool.owns(frame)
        assert pool.refcount(frame) == 1

    def test_accounting(self, pool):
        pool.alloc_many(30)
        assert pool.allocated_frames == 30
        assert pool.free_frames == 70

    def test_exhaustion_raises(self, pool):
        pool.alloc_many(100)
        with pytest.raises(OutOfMemoryError):
            pool.alloc_many(1)

    def test_exhaustion_message_names_pool(self, pool):
        with pytest.raises(OutOfMemoryError, match="test"):
            pool.alloc_many(101)

    def test_negative_rejected(self, pool):
        with pytest.raises(ValueError):
            pool.alloc_many(-1)

    def test_zero_alloc(self, pool):
        assert pool.alloc_many(0).size == 0


class TestFreeAndReuse:
    def test_free_returns_capacity(self, pool):
        frames = pool.alloc_many(50)
        pool.put(frames)
        assert pool.allocated_frames == 0
        assert pool.free_frames == 100

    def test_freed_frames_are_reused(self, pool):
        first = pool.alloc_many(100)
        pool.put(first)
        second = pool.alloc_many(100)
        assert set(second.tolist()) == set(first.tolist())

    def test_double_free_rejected(self, pool):
        frames = pool.alloc_many(5)
        pool.put(frames)
        with pytest.raises(ValueError):
            pool.put(frames)


class TestRefcounts:
    def test_get_increments(self, pool):
        frame = int(pool.alloc_many(1)[0])
        pool.get(frame)
        assert pool.refcount(frame) == 2

    def test_put_frees_at_zero(self, pool):
        frame = int(pool.alloc_many(1)[0])
        pool.get(frame)
        assert pool.put(frame) == 0  # still one ref
        assert pool.allocated_frames == 1
        assert pool.put(frame) == 1  # freed now
        assert pool.allocated_frames == 0

    def test_get_on_unallocated_rejected(self, pool):
        with pytest.raises(ValueError):
            pool.get(np.array([1000], dtype=np.int64))

    def test_vectorized_sharing(self, pool):
        frames = pool.alloc_many(10)
        pool.get(frames)
        pool.put(frames)
        pool.put(frames)
        assert pool.allocated_frames == 0

    def test_frames_outside_pool_rejected(self, pool):
        with pytest.raises(ValueError):
            pool.get(np.array([1], dtype=np.int64))


class TestGrowth:
    def test_refcount_array_grows_lazily(self):
        pool = FrameAllocator("big", base=0, capacity_frames=1_000_000)
        frames = pool.alloc_many(100_000)
        assert pool.refcount(int(frames[-1])) == 1
        assert pool.allocated_frames == 100_000
