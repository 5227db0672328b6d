"""repro.check.invariants: clean pods pass; hand-seeded corruptions fail."""

import numpy as np
import pytest

from repro.check import CheckFailure
from repro.check.invariants import check_leaf_refcounts, check_pod, check_task
from repro.os.mm.pte import PTE_FRAME_SHIFT, PteFlags

_P = np.int64(int(PteFlags.PRESENT))
_W = np.int64(int(PteFlags.WRITE))
_COW = np.int64(int(PteFlags.COW))
_CXL = np.int64(int(PteFlags.CXL))


def _pod_report(pod, checkpoints=()):
    return check_pod(
        pod.fabric, pod.nodes, cxlfs=pod.cxlfs, checkpoints=list(checkpoints)
    )


def _corrupt_one_pte(task, *, set_flags, where=None):
    """OR flags into the first present PTE (optionally matching ``where``)."""
    for _, leaf in task.mm.pagetable.leaves():
        present = (leaf.ptes & _P) != 0
        if where is not None:
            present &= where(leaf.ptes)
        idx = np.nonzero(present)[0]
        if idx.size:
            leaf.ptes[idx[0]] |= np.int64(int(set_flags))
            return
    raise AssertionError("no matching PTE to corrupt")


class TestCleanPods:
    def test_seasoned_parent_clean(self, pod, parent):
        report = _pod_report(pod)
        assert report.clean, report.describe()

    def test_checkpoint_and_child_clean(self, pod, checkpointed):
        _, _, mech, ckpt, _ = checkpointed
        mech.restore(ckpt, pod.target)
        report = _pod_report(pod, [ckpt])
        assert report.clean, report.describe()

    def test_raise_on_violation(self, pod, checkpointed):
        _, _, _, ckpt, _ = checkpointed
        with pytest.raises(CheckFailure):
            check_pod(
                pod.fabric, pod.nodes, cxlfs=pod.cxlfs,
                checkpoints=[], raise_on_violation=True,
            )


class TestDetection:
    def test_unlisted_checkpoint_is_a_leak(self, pod, checkpointed):
        """An ATTACHED image nobody enumerates shows up immediately."""
        report = _pod_report(pod, checkpoints=())
        assert not report.clean

    def test_write_and_cow_both_set(self, pod, parent):
        _, instance = parent
        _corrupt_one_pte(
            instance.task, set_flags=PteFlags.WRITE | PteFlags.COW
        )
        report = check_task(instance.task)
        assert any(v.kind == "pte-flags" for v in report.violations)

    def test_writable_cxl_replica(self, pod, checkpointed):
        _, _, mech, ckpt, _ = checkpointed
        child = mech.restore(ckpt, pod.target).task
        _corrupt_one_pte(
            child, set_flags=PteFlags.WRITE,
            where=lambda ptes: (ptes & _CXL) != 0,
        )
        report = check_task(child)
        assert any(v.kind == "tlb-proxy" for v in report.violations)

    def test_dangling_leaf_attach(self, pod, checkpointed):
        _, instance, _, ckpt, _ = checkpointed
        for _, leaf in ckpt.pagetable.leaves():
            leaf.refcount += 1  # a forgotten detach
            break
        report = check_leaf_refcounts(pod.nodes, [ckpt])
        assert any(v.kind == "dangling-attach" for v in report.violations)

    def test_leaf_refcount_underflow(self, pod, checkpointed):
        _, instance, _, ckpt, _ = checkpointed
        for _, leaf in ckpt.pagetable.leaves():
            leaf.refcount -= 1
            break
        report = check_leaf_refcounts(pod.nodes, [ckpt])
        assert any(v.kind == "refcount-underflow" for v in report.violations)

    def test_freed_but_mapped_frame(self, pod, parent):
        _, instance = parent
        task = instance.task
        # A hardware-writable local page is exclusively owned (refcount 1),
        # so freeing it under the task's feet drops the count to zero.
        for vma in task.mm.vmas:
            ptes = task.mm.pagetable.gather_ptes(vma.start_vpn, vma.npages)
            sel = ((ptes & _P) != 0) & ((ptes & _W) != 0) & ((ptes & _CXL) == 0)
            idx = np.nonzero(sel)[0]
            if idx.size:
                frame = int(ptes[idx[0]]) >> PTE_FRAME_SHIFT
                assert pod.source.dram.refcount(frame) == 1
                pod.source.dram.put(np.array([frame], dtype=np.int64))
                break
        else:
            raise AssertionError("no exclusively owned local page")
        report = check_task(task)
        assert any(v.kind == "frame-owner" for v in report.violations)
