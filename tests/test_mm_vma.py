"""VMA tree: lookup, insert/split, leaf attach/privatize."""

import pytest

from repro.os.mm.vma import VMAS_PER_LEAF, Vma, VmaKind, VmaLeaf, VmaPerms, VmaTree


def anon(start, npages, label=""):
    return Vma(start_vpn=start, npages=npages,
               perms=VmaPerms.READ | VmaPerms.WRITE, label=label)


def filemap(start, npages, path="/lib/x.so"):
    return Vma(start_vpn=start, npages=npages, perms=VmaPerms.READ,
               kind=VmaKind.FILE_PRIVATE, path=path)


class TestVma:
    def test_bounds(self):
        v = anon(100, 10)
        assert v.end_vpn == 110
        assert v.contains(100) and v.contains(109)
        assert not v.contains(110)

    def test_overlaps(self):
        v = anon(100, 10)
        assert v.overlaps(105, 1)
        assert v.overlaps(90, 11)
        assert not v.overlaps(110, 5)

    def test_zero_pages_rejected(self):
        with pytest.raises(ValueError):
            anon(0, 0)

    def test_file_vma_needs_path(self):
        with pytest.raises(ValueError):
            Vma(start_vpn=0, npages=1, perms=VmaPerms.READ,
                kind=VmaKind.FILE_PRIVATE)


class TestTreeLookup:
    def test_find_in_empty(self):
        assert VmaTree().find(5) is None

    def test_find_across_many(self):
        tree = VmaTree()
        for i in range(100):
            tree.insert(anon(i * 20, 10, label=f"v{i}"))
        assert tree.find(55 * 20 + 3).label == "v55"
        assert tree.find(55 * 20 + 15) is None  # the gap

    def test_len_and_total_pages(self):
        tree = VmaTree()
        tree.insert(anon(0, 5))
        tree.insert(anon(10, 7))
        assert len(tree) == 2
        assert tree.total_pages() == 12

    def test_iteration_sorted(self):
        tree = VmaTree()
        for start in (300, 100, 200):
            tree.insert(anon(start, 10))
        assert [v.start_vpn for v in tree] == [100, 200, 300]


class TestTreeMutation:
    def test_overlap_rejected(self):
        tree = VmaTree()
        tree.insert(anon(0, 10))
        with pytest.raises(ValueError):
            tree.insert(anon(5, 10))

    def test_leaves_split_when_full(self):
        tree = VmaTree()
        for i in range(VMAS_PER_LEAF + 1):
            tree.insert(anon(i * 20, 10))
        assert tree.leaf_count == 2
        assert len(tree) == VMAS_PER_LEAF + 1

    def test_replace_vma(self):
        tree = VmaTree()
        v = filemap(0, 10)
        tree.insert(v)
        from dataclasses import replace

        new = replace(v, file_registered=False)
        tree.replace_vma(0, v, new)
        assert tree.find(0).file_registered is False


class TestAttachment:
    def test_attach_shares_by_reference(self):
        leaf = VmaLeaf([anon(0, 10)], cxl_resident=True)
        tree = VmaTree()
        tree.attach_leaf(leaf)
        assert leaf.refcount == 2
        assert tree.find(5) is leaf.vmas[0]

    def test_attach_keeps_order(self):
        tree = VmaTree()
        tree.attach_leaf(VmaLeaf([anon(200, 10)]))
        tree.attach_leaf(VmaLeaf([anon(0, 10)]))
        assert [v.start_vpn for v in tree] == [0, 200]

    def test_empty_leaf_rejected(self):
        with pytest.raises(ValueError):
            VmaTree().attach_leaf(VmaLeaf([]))

    def test_mutating_shared_leaf_rejected(self):
        tree = VmaTree()
        leaf = VmaLeaf([anon(0, 10)], cxl_resident=True)
        tree.attach_leaf(leaf)
        with pytest.raises(PermissionError):
            tree.insert(anon(20, 5))

    def test_privatize_then_mutate(self):
        tree = VmaTree()
        leaf = VmaLeaf([anon(0, 10), anon(20, 5)], cxl_resident=True)
        tree.attach_leaf(leaf)
        private, copied = tree.privatize_leaf(0)
        assert copied
        tree.insert(anon(40, 5))
        assert len(tree) == 3
        assert len(leaf.vmas) == 2  # checkpoint copy untouched
        assert leaf.refcount == 1

    def test_detach_all(self):
        tree = VmaTree()
        leaf = VmaLeaf([anon(0, 10)], cxl_resident=True)
        tree.attach_leaf(leaf)
        tree.detach_all()
        assert len(tree) == 0
        assert leaf.refcount == 1

    def test_shared_vs_local_leaf_counts(self):
        tree = VmaTree()
        tree.insert(anon(0, 10))
        tree.attach_leaf(VmaLeaf([anon(100, 5)], cxl_resident=True))
        assert tree.local_leaf_count() == 1
        assert tree.shared_leaf_count() == 1
