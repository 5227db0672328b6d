"""Property tests: the indexed VmaTree vs a naive list-scan oracle, and the
searchsorted membership helpers vs ``np.isin``.

The VmaTree keeps cached sorted-key indexes that are invalidated on
mutation; these tests drive find/insert/attach/privatize sequences
against a brute-force oracle to prove the caches never go stale,
and assert the structural invariants after every mutation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.os.mm.vma import VMAS_PER_LEAF, Vma, VmaPerms, VmaTree
from repro.sim.npx import count_in_range, ensure_sorted, mask_in_range

pytestmark = pytest.mark.prop


class NaiveVmaStore:
    """Flat sorted list with linear scans — the obviously-correct oracle."""

    def __init__(self):
        self.vmas: list[Vma] = []

    def insert(self, vma: Vma) -> None:
        for existing in self.vmas:
            if existing.overlaps(vma.start_vpn, vma.npages):
                raise ValueError("overlap")
        self.vmas.append(vma)
        self.vmas.sort(key=lambda v: v.start_vpn)

    def find(self, vpn: int):
        for vma in self.vmas:
            if vma.contains(vpn):
                return vma
        return None


def _probe_vpns(oracle: NaiveVmaStore) -> list:
    """Interesting probe points: VMA edges and the gaps between them."""
    probes = [0]
    for vma in oracle.vmas:
        probes += [
            vma.start_vpn - 1,
            vma.start_vpn,
            vma.start_vpn + vma.npages // 2,
            vma.end_vpn - 1,
            vma.end_vpn,
        ]
    return [p for p in probes if p >= 0]


def _check_agreement(tree: VmaTree, oracle: NaiveVmaStore) -> None:
    tree.check_invariants()
    assert len(tree) == len(oracle.vmas)
    assert [v.start_vpn for v in tree] == [v.start_vpn for v in oracle.vmas]
    for vpn in _probe_vpns(oracle):
        assert tree.find(vpn) is oracle.find(vpn)
        found = tree.find_leaf(vpn)
        assert (found is not None) == (oracle.find(vpn) is not None)


class TestVmaTreeAgainstOracle:
    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_insert_find_sequences(self, data):
        tree = VmaTree()
        oracle = NaiveVmaStore()
        n_ops = data.draw(st.integers(min_value=1, max_value=40), label="n_ops")
        for _ in range(n_ops):
            op = data.draw(st.sampled_from(["insert", "find"]), label="op")
            if op == "insert":
                start = data.draw(st.integers(min_value=0, max_value=400))
                npages = data.draw(st.integers(min_value=1, max_value=30))
                vma = Vma(
                    start_vpn=start,
                    npages=npages,
                    perms=VmaPerms.READ | VmaPerms.WRITE,
                )
                try:
                    oracle.insert(vma)
                except ValueError:
                    # The tree must reject exactly what the oracle rejects.
                    try:
                        tree.insert(vma)
                    except ValueError:
                        pass
                    else:
                        raise AssertionError(
                            f"tree accepted overlapping {vma}"
                        ) from None
                else:
                    tree.insert(vma)
            else:
                vpn = data.draw(st.integers(min_value=0, max_value=500))
                assert tree.find(vpn) is oracle.find(vpn)
            _check_agreement(tree, oracle)

    @given(st.integers(min_value=1, max_value=4 * VMAS_PER_LEAF))
    @settings(max_examples=50, deadline=None)
    def test_leaf_split_preserves_size_and_order(self, count):
        """Inserting past VMAS_PER_LEAF splits leaves; sizes must add up
        (the satellite invariant: sum of leaf sizes == len(tree))."""
        tree = VmaTree()
        for i in range(count):
            tree.insert(Vma(start_vpn=10 * i, npages=5, perms=VmaPerms.READ))
            tree.check_invariants()
        assert len(tree) == count
        assert sum(len(leaf.vmas) for leaf in tree.leaves()) == count
        for leaf in tree.leaves():
            assert not leaf.shared
            assert not leaf.cxl_resident
            assert leaf.refcount == 1

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_attach_privatize_then_mutate_independently(self, data):
        """The fork/restore path: attach a parent's leaves, privatize, then
        mutate the child — the parent must be untouched and both trees must
        still agree with their oracles."""
        parent = VmaTree()
        parent_oracle = NaiveVmaStore()
        count = data.draw(st.integers(min_value=1, max_value=3 * VMAS_PER_LEAF))
        for i in range(count):
            vma = Vma(start_vpn=20 * i, npages=8, perms=VmaPerms.READ | VmaPerms.WRITE)
            parent.insert(vma)
            parent_oracle.insert(vma)

        child = VmaTree()
        child_oracle = NaiveVmaStore()
        for leaf in parent.leaves():
            child.attach_leaf(leaf)
        for vma in parent_oracle.vmas:
            child_oracle.insert(vma)
        for leaf in parent.leaves():
            assert leaf.shared
        for pos in range(child.leaf_count):
            leaf, copied = child.privatize_leaf(pos)
            assert copied
            assert not leaf.shared
        _check_agreement(child, child_oracle)

        # Mutate the child only.
        extra = Vma(start_vpn=20 * count + 5, npages=3, perms=VmaPerms.READ)
        child.insert(extra)
        child_oracle.insert(extra)
        _check_agreement(child, child_oracle)
        _check_agreement(parent, parent_oracle)


class TestSearchsortedHelpers:
    @given(
        st.lists(st.integers(min_value=0, max_value=3000), max_size=200),
        st.integers(min_value=0, max_value=3000),
        st.integers(min_value=0, max_value=600),
    )
    @settings(max_examples=200, deadline=None)
    def test_mask_in_range_matches_isin(self, haystack, start, length):
        hay = np.unique(np.array(haystack, dtype=np.int64))
        window = np.arange(start, start + length)
        expected = np.isin(window, hay)
        assert (mask_in_range(hay, start, length) == expected).all()

    @given(
        st.lists(st.integers(min_value=0, max_value=3000), max_size=200),
        st.integers(min_value=0, max_value=3000),
        st.integers(min_value=0, max_value=600),
    )
    @settings(max_examples=200, deadline=None)
    def test_count_in_range_matches_isin(self, haystack, start, length):
        hay = np.unique(np.array(haystack, dtype=np.int64))
        window = np.arange(start, start + length)
        expected = int(np.count_nonzero(np.isin(window, hay)))
        assert count_in_range(hay, start, start + length) == expected

    @given(st.lists(st.integers(min_value=-1000, max_value=1000), max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_ensure_sorted(self, values):
        arr = np.array(values, dtype=np.int64)
        out = ensure_sorted(arr)
        assert (out == np.sort(arr)).all()
        presorted = np.sort(arr)
        assert ensure_sorted(presorted) is presorted  # no copy when sorted
