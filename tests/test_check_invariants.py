"""repro.check.invariants: clean pods pass; hand-seeded corruptions fail."""

import numpy as np
import pytest

from repro.check import CheckFailure
from repro.check.invariants import check_leaf_refcounts, check_pod, check_task
from repro.os.mm.pte import PTE_FRAME_SHIFT, PteFlags
from repro.os.mm.vma import VmaPerms

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


def _per_vma_check_task(task):
    """Reference: the per-VMA walk the one-pass ``check_task`` replaces.
    Returns its violations as ``(kind, detail)`` pairs, in order."""
    found = []
    node, mm = task.node, task.mm
    backing = mm.ckpt_backing
    holds = backing is None or backing.holds_frame_refs
    vma_present = 0
    for vma in mm.vmas:
        ptes = mm.pagetable.gather_ptes(vma.start_vpn, vma.npages)
        present = (ptes & _P) != 0
        vma_present += int(np.count_nonzero(present))
        if not np.any(present):
            continue
        idx = np.nonzero(present)[0]
        pp = ptes[present]
        frames = pp >> np.int64(PTE_FRAME_SHIFT)
        hw_w, on_cxl, is_cow = (pp & _W) != 0, (pp & _CXL) != 0, (pp & _COW) != 0
        if np.any(hw_w & is_cow):
            vpn = vma.start_vpn + int(idx[hw_w & is_cow][0])
            found.append(("pte-flags", f"WRITE and COW both set at vpn {vpn}"))
        if np.any(hw_w) and not (vma.perms & VmaPerms.WRITE):
            vpn = vma.start_vpn + int(idx[hw_w][0])
            found.append(("pte-flags",
                          f"hardware-writable PTE in read-only VMA at vpn {vpn}"))
        if np.any(hw_w & on_cxl):
            vpn = vma.start_vpn + int(idx[hw_w & on_cxl][0])
            found.append(("tlb-proxy",
                          f"writable mapping of an immutable CXL replica at vpn {vpn}"))
        cxl_frames = frames[on_cxl]
        for frame in cxl_frames[:1024].tolist():
            if not node.fabric.is_cxl_frame(frame):
                found.append(("frame-owner",
                              f"CXL-flagged PTE maps non-fabric frame {frame}"))
        pool = node.fabric.device.frames
        if cxl_frames.size and holds:
            counts = pool.refcounts(cxl_frames)
            if np.any(counts <= 0) and not pool.quarantined:
                frame = int(cxl_frames[counts <= 0][0])
                found.append(("frame-owner", f"CXL frame {frame} mapped but freed"))
        local = frames[~on_cxl]
        if local.size and not node.dram.quarantined:
            bad = (local < node.dram.base) | (local >= node.dram.limit)
            if np.any(bad):
                found.append(("frame-owner",
                              f"local PTE maps frame {int(local[bad][0])} outside "
                              f"{node.name}'s DRAM pool"))
                continue
            counts = node.dram.refcounts(local)
            if np.any(counts <= 0):
                found.append(("frame-owner",
                              f"local frame {int(local[counts <= 0][0])} mapped but freed"))
            stale = hw_w[~on_cxl] & (counts > 1)
            if np.any(stale):
                pos = int(np.nonzero(stale)[0][0])
                found.append(("tlb-proxy",
                              f"writable mapping of shared frame {int(local[pos])} "
                              f"(refcount {int(counts[pos])}) — missed CoW/shootdown"))
    outside = mm.pagetable.count_present() - vma_present
    if outside:
        found.append(("vma-coverage", f"{outside} present PTE(s) outside every VMA"))
    for leaf_index, leaf in mm.pagetable.leaves():
        present = (leaf.ptes & _P) != 0
        if leaf.cxl_resident and np.any(present & ((leaf.ptes & _CXL) == 0)):
            found.append(("leaf-residency",
                          f"cxl_resident PTE leaf {leaf_index} maps node-local memory"))
    return found


def _corrupt_randomly(task, rng):
    """Seeded corruptions: flag flips, foreign and freed frames, residency
    flips and a PTE copied outside every VMA."""
    leaves = [leaf for _, leaf in task.mm.pagetable.leaves()
              if np.any(leaf.ptes & _P)]
    for _ in range(int(rng.integers(1, 6))):
        leaf = leaves[int(rng.integers(len(leaves)))]
        present = np.flatnonzero(leaf.ptes & _P)
        j = int(present[int(rng.integers(present.size))])
        pte = int(leaf.ptes[j])
        kind = int(rng.integers(7))
        if kind == 0:
            pte |= int(_W) | int(_COW)
        elif kind == 1:
            pte |= int(_W)
        elif kind == 2:
            flags = pte & ((1 << PTE_FRAME_SHIFT) - 1)
            pte = flags | (int(rng.integers(1, 10**6)) << PTE_FRAME_SHIFT)
        elif kind == 3:
            pte ^= int(_CXL)
        elif kind == 4:
            leaf.cxl_resident = not leaf.cxl_resident
        elif kind == 5:
            pte = int(_P | _W) | (int(rng.integers(1, 50)) << PTE_FRAME_SHIFT)
        else:
            leaf.ptes[(j + 300) % leaf.ptes.size] = pte
        leaf.ptes[j] = pte


@pytest.mark.parametrize("seed", range(12))
def test_one_pass_check_task_matches_per_vma_reference(pod, checkpointed, seed):
    """The one-pass sweep reports exactly what the per-VMA walk reported,
    in the same order (or raises the same error), on a parent and on a
    restored child whose PTEs map CXL frames."""
    _, instance, mech, ckpt, _ = checkpointed
    child = mech.restore(ckpt, pod.target).task
    rng = np.random.default_rng(seed)
    for task in (instance.task, child):
        if seed:
            _corrupt_randomly(task, rng)
        try:
            want = _per_vma_check_task(task)
        except ValueError:
            with pytest.raises(ValueError):
                check_task(task)
            continue
        got = [(v.kind, v.detail) for v in check_task(task).violations]
        assert got == want
