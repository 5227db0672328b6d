"""CXL heap and pointer rebasing."""

import pytest

from repro.serial.blob import CxlHeap
from repro.serial.rebase import CxlOffset, RebaseError, Rebaser


class TestCxlHeap:
    def test_store_and_deref(self, fabric):
        heap = CxlHeap(fabric)
        obj = {"leaf": 1}
        offset = heap.store(obj, 4096)
        assert heap.deref(offset) is obj

    def test_offsets_unique_and_aligned(self, fabric):
        heap = CxlHeap(fabric)
        a = heap.store("a", 10)
        b = heap.store("b", 10)
        assert a != b
        assert a % CxlHeap.ALIGN == 0 and b % CxlHeap.ALIGN == 0

    def test_null_offset_invalid(self, fabric):
        with pytest.raises(ValueError):
            CxlHeap(fabric).deref(0)

    def test_unknown_offset(self, fabric):
        with pytest.raises(KeyError):
            CxlHeap(fabric).deref(64)

    def test_backing_grows_with_usage(self, fabric):
        heap = CxlHeap(fabric)
        before = fabric.used_bytes
        for i in range(100):
            heap.store(i, 4096)
        assert fabric.used_bytes >= before + 100 * 4096

    def test_release_frees_cxl(self, fabric):
        heap = CxlHeap(fabric)
        heap.store("x", 1 << 20)
        heap.release()
        assert fabric.used_bytes == 0
        with pytest.raises(RuntimeError):
            heap.store("y", 10)

    def test_double_release_is_noop(self, fabric):
        heap = CxlHeap(fabric)
        heap.store("x", 10)
        heap.release()
        assert heap.release() == 0

    def test_invalid_size(self, fabric):
        with pytest.raises(ValueError):
            CxlHeap(fabric).store("x", 0)


class TestRebaser:
    def test_intern_and_resolve(self, fabric):
        rebaser = Rebaser(CxlHeap(fabric))
        leaf = {"ptes": [1, 2, 3]}
        ref = rebaser.intern(leaf, 4096)
        assert isinstance(ref, CxlOffset)
        assert rebaser.resolve(ref) is leaf

    def test_intern_idempotent(self, fabric):
        rebaser = Rebaser(CxlHeap(fabric))
        leaf = {"x": 1}
        assert rebaser.intern(leaf, 10).value == rebaser.intern(leaf, 10).value

    def test_verify_closed_passes_for_closed_graph(self, fabric):
        rebaser = Rebaser(CxlHeap(fabric))
        child = {"name": "child"}
        parent = {"child": child}
        rebaser.intern(child, 10)
        rebaser.intern(parent, 10)
        rebaser.verify_closed(
            [parent], lambda o: [o["child"]] if "child" in o else []
        )

    def test_verify_closed_catches_dangling(self, fabric):
        rebaser = Rebaser(CxlHeap(fabric))
        dangling = {"name": "inode"}
        parent = {"child": dangling}
        rebaser.intern(parent, 10)
        with pytest.raises(RebaseError):
            rebaser.verify_closed(
                [parent], lambda o: [o["child"]] if "child" in o else []
            )

    def test_offset_zero_rejected(self):
        with pytest.raises(ValueError):
            CxlOffset(0)

    def test_resolve_by_int(self, fabric):
        rebaser = Rebaser(CxlHeap(fabric))
        ref = rebaser.intern("payload", 8)
        assert rebaser.resolve(int(ref)) == "payload"
