"""Property-based tests: VMA tree ordering and touch-mask guarantees."""

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faas.invocation import touch_mask
from repro.os.mm.vma import Vma, VmaPerms, VmaTree

pytestmark = pytest.mark.prop


@st.composite
def disjoint_vmas(draw):
    """A list of non-overlapping VMAs (gaps guaranteed by construction)."""
    count = draw(st.integers(min_value=1, max_value=40))
    sizes = draw(
        st.lists(st.integers(min_value=1, max_value=50),
                 min_size=count, max_size=count)
    )
    gaps = draw(
        st.lists(st.integers(min_value=1, max_value=20),
                 min_size=count, max_size=count)
    )
    vmas = []
    cursor = 0
    for size, gap in zip(sizes, gaps):
        cursor += gap
        vmas.append(Vma(start_vpn=cursor, npages=size, perms=VmaPerms.READ))
        cursor += size
    order = draw(st.permutations(range(count)))
    return [vmas[i] for i in order]


class TestVmaTreeProperties:
    @given(disjoint_vmas())
    @settings(max_examples=100)
    def test_insert_then_find_every_page(self, vmas):
        tree = VmaTree()
        for vma in vmas:
            tree.insert(vma)
        assert len(tree) == len(vmas)
        for vma in vmas:
            assert tree.find(vma.start_vpn) is vma
            assert tree.find(vma.end_vpn - 1) is vma

    @given(disjoint_vmas())
    def test_iteration_sorted(self, vmas):
        tree = VmaTree()
        for vma in vmas:
            tree.insert(vma)
        starts = [v.start_vpn for v in tree]
        assert starts == sorted(starts)

    @given(disjoint_vmas())
    def test_gaps_not_found(self, vmas):
        tree = VmaTree()
        for vma in vmas:
            tree.insert(vma)
        lowest = min(v.start_vpn for v in vmas)
        assert tree.find(lowest - 1) is None


class TestTouchMaskProperties:
    @given(
        st.integers(min_value=1, max_value=5000),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=200)
    def test_count_close_to_fraction(self, npages, frac, index):
        mask = touch_mask(npages, frac, index)
        assert mask.size == npages
        expected = round(npages * frac)
        assert abs(int(mask.sum()) - expected) <= max(2, expected * 0.05)

    @given(
        st.integers(min_value=10, max_value=2000),
        st.floats(min_value=0.1, max_value=0.9),
        st.integers(min_value=0, max_value=100),
    )
    def test_deterministic(self, npages, frac, index):
        a = touch_mask(npages, frac, index)
        b = touch_mask(npages, frac, index)
        assert (a == b).all()

    @given(
        st.integers(min_value=50, max_value=2000),
        st.floats(min_value=0.2, max_value=0.8),
        st.integers(min_value=0, max_value=50),
        st.integers(min_value=0, max_value=50),
    )
    def test_stable_core_shared_between_invocations(self, npages, frac, i, j):
        a = touch_mask(npages, frac, i)
        b = touch_mask(npages, frac, j)
        overlap = int((a & b).sum())
        # At least the stable core (80% of the selection) is common.
        assert overlap >= 0.7 * int(a.sum())

    @given(st.integers(min_value=1, max_value=1000))
    def test_extremes(self, npages):
        assert not touch_mask(npages, 0.0).any()
        assert touch_mask(npages, 1.0).all()
