"""Pod-wide invariant checker, runnable at any clock barrier.

Four families of invariants, each of which the paper's design implicitly
relies on:

1. **Per-task MMU sanity** — every present PTE lies inside a VMA; a
   hardware-writable PTE implies a writable VMA and never carries the COW
   bit; a CXL-flagged PTE maps a fabric frame (and vice versa); a
   ``cxl_resident`` PTE leaf maps only CXL frames.
2. **Shootdown/TLB soundness proxies** — the TLB itself is a cost model
   (:class:`repro.os.mm.tlb.TlbModel` keeps no entry state), so the checker
   enforces the property shootdowns exist to protect: no hardware-writable
   node-local mapping of a frame that anyone else can still read (pool
   refcount > 1 would mean a missed CoW break / missed shootdown), and no
   hardware-writable mapping of a CXL frame at all (checkpoint replicas are
   immutable and must be mapped read-only, §4.2.1).
3. **Leaf attach/refcount back-references** — the ATTACHED PTE/VMA leaves
   of §4.2.1 are refcounted; the checker counts actual references from
   every live task and checkpoint and demands ``leaf.refcount`` match
   exactly (a higher count is a dangling attach that will leak the leaf; a
   lower one will free it while still mapped).
4. **Allocator totals vs. the owner model** — every pool's
   ``allocated_frames`` equals its population of nonzero refcounts, and the
   pod-wide :func:`repro.faults.audit.audit_pod` owner walk agrees with the
   pools (no leaked, missing, or miscounted frames).
5. **Restore-plan coherence** — a memoized restore plan
   (:mod:`repro.rfork.restoreplan`) whose invalidation key still matches
   the live epochs must agree with a fresh walk of the image it describes;
   disagreement means an in-place image mutation skipped its epoch bump.

All checks are read-only and never advance a virtual clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional

import numpy as np

from repro.check import CHECK, CheckFailure
from repro.faults.audit import audit_pod
from repro.os.mm.pte import PTE_FRAME_SHIFT, PteFlags
from repro.os.mm.vma import VmaPerms

_P = np.int64(int(PteFlags.PRESENT))
_W = np.int64(int(PteFlags.WRITE))
_COW = np.int64(int(PteFlags.COW))
_CXL = np.int64(int(PteFlags.CXL))


@dataclass(frozen=True)
class InvariantViolation:
    """One broken invariant, with enough context to debug it."""

    kind: str
    where: str
    detail: str

    def describe(self) -> str:
        return f"[{self.kind}] {self.where}: {self.detail}"


@dataclass
class InvariantReport:
    """All violations found by one sweep."""

    violations: List[InvariantViolation] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.violations

    def add(self, kind: str, where: str, detail: str) -> None:
        self.violations.append(InvariantViolation(kind, where, detail))

    def describe(self) -> str:
        if self.clean:
            return "invariants clean"
        lines = [f"{len(self.violations)} invariant violation(s):"]
        lines += [f"  {v.describe()}" for v in self.violations[:12]]
        if len(self.violations) > 12:
            lines.append(f"  ... {len(self.violations) - 12} more")
        return "\n".join(lines)


def check_task(task, report: Optional[InvariantReport] = None) -> InvariantReport:
    """Per-task MMU invariants (families 1 and 2 above).

    Called standalone (``report=None``) this is its own sweep and accounts
    to :data:`CHECK`; inside :func:`check_pod` the caller accounts instead.
    """
    standalone = report is None
    report = report if report is not None else InvariantReport()
    node = task.node
    mm = task.mm
    backing = mm.ckpt_backing
    holds = backing is None or backing.holds_frame_refs
    who = f"{task.comm}/{task.pid}@{node.name}"

    vma_present = 0
    for vma in mm.vmas:
        ptes = mm.pagetable.gather_ptes(vma.start_vpn, vma.npages)
        present = (ptes & _P) != 0
        n_present = int(np.count_nonzero(present))
        vma_present += n_present
        if n_present == 0:
            continue
        idx = np.nonzero(present)[0]
        pp = ptes[present]
        frames = (pp >> np.int64(PTE_FRAME_SHIFT)).astype(np.int64)
        hw_w = (pp & _W) != 0
        on_cxl = (pp & _CXL) != 0
        is_cow = (pp & _COW) != 0

        both = hw_w & is_cow
        if np.any(both):
            vpn = vma.start_vpn + int(idx[both][0])
            report.add("pte-flags", who, f"WRITE and COW both set at vpn {vpn}")
        if np.any(hw_w) and not (vma.perms & VmaPerms.WRITE):
            vpn = vma.start_vpn + int(idx[hw_w][0])
            report.add(
                "pte-flags", who,
                f"hardware-writable PTE in read-only VMA at vpn {vpn}",
            )
        if np.any(hw_w & on_cxl):
            vpn = vma.start_vpn + int(idx[hw_w & on_cxl][0])
            report.add(
                "tlb-proxy", who,
                f"writable mapping of an immutable CXL replica at vpn {vpn}",
            )

        # Frame-ownership cross-check: the flag decides which pool must own
        # (and refcount) the frame.
        cxl_frames = frames[on_cxl]
        for frame in cxl_frames[:1024]:
            if not node.fabric.is_cxl_frame(int(frame)):
                report.add(
                    "frame-owner", who,
                    f"CXL-flagged PTE maps non-fabric frame {int(frame)}",
                )
        if cxl_frames.size and holds:
            pool = node.fabric.device.frames
            counts = pool.refcounts(cxl_frames)
            if np.any(counts <= 0) and not pool.quarantined:
                frame = int(cxl_frames[np.nonzero(counts <= 0)[0][0]])
                report.add("frame-owner", who, f"CXL frame {frame} mapped but freed")
        local_frames = frames[~on_cxl]
        if local_frames.size and not node.dram.quarantined:
            bad_range = (local_frames < node.dram.base) | (
                local_frames >= node.dram.limit
            )
            if np.any(bad_range):
                frame = int(local_frames[np.nonzero(bad_range)[0][0]])
                report.add(
                    "frame-owner", who,
                    f"local PTE maps frame {frame} outside {node.name}'s DRAM pool",
                )
            else:
                counts = node.dram.refcounts(local_frames)
                if np.any(counts <= 0):
                    frame = int(local_frames[np.nonzero(counts <= 0)[0][0]])
                    report.add(
                        "frame-owner", who, f"local frame {frame} mapped but freed"
                    )
                # Shootdown soundness: hardware-writable implies exclusive.
                local_w = hw_w[~on_cxl]
                stale = local_w & (counts > 1)
                if np.any(stale):
                    pos = np.nonzero(stale)[0][0]
                    frame = int(local_frames[pos])
                    report.add(
                        "tlb-proxy", who,
                        f"writable mapping of shared frame {frame} "
                        f"(refcount {int(counts[pos])}) — missed CoW/shootdown",
                    )

    # Coverage: every present PTE accounted for by some VMA.  VMAs cannot
    # overlap (insert() rejects that), so equality is exact.
    table_present = mm.pagetable.count_present()
    if table_present != vma_present:
        report.add(
            "vma-coverage", who,
            f"{table_present - vma_present} present PTE(s) outside every VMA",
        )

    # cxl_resident leaves must map only CXL frames (they *are* checkpoint
    # storage; a local frame in one means a half-finished privatize).
    for leaf_index, leaf in mm.pagetable.leaves():
        if not leaf.cxl_resident:
            continue
        present = (leaf.ptes & _P) != 0
        if np.any(present & ((leaf.ptes & _CXL) == 0)):
            report.add(
                "leaf-residency", who,
                f"cxl_resident PTE leaf {leaf_index} maps node-local memory",
            )
    if standalone:
        CHECK.tally("invariant_runs", "violations", len(report.violations), report)
    return report


def _census_note(refs: dict, leaf) -> None:
    entry = refs.get(id(leaf))
    if entry is None:
        refs[id(leaf)] = [leaf, 1]
    else:
        entry[1] += 1


def check_leaf_refcounts(
    nodes: Iterable,
    checkpoints: Iterable = (),
    report: Optional[InvariantReport] = None,
) -> InvariantReport:
    """Family 3: count real references to every PTE/VMA leaf and compare
    against the leaf's refcount."""
    report = report if report is not None else InvariantReport()
    pte_refs: dict = {}
    vma_refs: dict = {}
    for node in nodes:
        if node.failed:
            continue
        for task in node.kernel.tasks():
            for _, leaf in task.mm.pagetable.leaves():
                _census_note(pte_refs, leaf)
            for leaf in task.mm.vmas.leaves():
                _census_note(vma_refs, leaf)
    for ckpt in checkpoints:
        if getattr(ckpt, "_deleted", False):
            continue
        pagetable = getattr(ckpt, "pagetable", None)
        if pagetable is not None:
            for _, leaf in pagetable.leaves():
                _census_note(pte_refs, leaf)
        for leaf in getattr(ckpt, "vma_leaves", ()):
            _census_note(vma_refs, leaf)
    for family, refs in (("pte-leaf", pte_refs), ("vma-leaf", vma_refs)):
        for leaf, seen in refs.values():
            if leaf.refcount == seen:
                continue
            kind = "dangling-attach" if leaf.refcount > seen else "refcount-underflow"
            report.add(
                kind, family,
                f"{leaf!r}: refcount {leaf.refcount}, {seen} live reference(s)",
            )
    return report


def check_pod(
    fabric,
    nodes: Iterable,
    *,
    cxlfs=None,
    checkpoints: Iterable = (),
    ghost_pools: Iterable = (),
    audit: bool = True,
    raise_on_violation: bool = False,
) -> InvariantReport:
    """Run every invariant family across a pod at a clock barrier.

    ``checkpoints`` must list every live checkpoint, exactly as for
    :func:`repro.faults.audit.audit_pod` — an unlisted one shows up as both
    a frame leak and a leaf-refcount mismatch, which is the point.
    """
    nodes = list(nodes)
    checkpoints = list(checkpoints)
    report = InvariantReport()
    for node in nodes:
        if node.failed:
            continue
        for task in node.kernel.tasks():
            check_task(task, report)
    check_leaf_refcounts(nodes, checkpoints, report)

    # Family 5: restore-plan coherence.  A memoized plan whose key still
    # matches the current epochs must describe the image as it is *now*:
    # its cached verify frame set must equal a fresh checkpoint_frames
    # walk.  A mismatch means some image mutation forgot its epoch bump —
    # the exact bug class the plan cache's invalidation contract exists
    # to prevent (and the stale-restore-plan mutation simulates).
    from repro.ras.checksum import checkpoint_frames as _ckpt_frames
    from repro.rfork.restoreplan import cached_plan, plan_key

    for ckpt in checkpoints:
        if getattr(ckpt, "_deleted", False):
            continue
        plan = cached_plan(ckpt)
        if plan is None or plan.frames is None:
            continue  # nothing memoized, or a frameless (mitosis) image
        if plan.key != plan_key(ckpt, fabric):
            continue  # stale by its own account; plan_for will rebuild it
        fresh = _ckpt_frames(ckpt)
        if plan.frames.shape != fresh.shape or not np.array_equal(
            plan.frames, fresh
        ):
            report.add(
                "stale-restore-plan", getattr(ckpt, "comm", "?"),
                f"plan caches {plan.frames.size} verify frame(s) but the "
                f"image now spans {fresh.size}; an in-place image mutation "
                "missed its invalidate_restore_plan/epoch bump",
            )

    # Family 4a: each pool's totals agree with its own refcount population.
    pools = [fabric.device.frames] + [n.dram for n in nodes]
    for pool in pools:
        if pool.quarantined:
            continue
        if pool.allocated_frames != pool.live_frames:
            report.add(
                "pool-totals", pool.name,
                f"allocated_frames={pool.allocated_frames} but "
                f"{pool.live_frames} frame(s) hold a nonzero refcount",
            )

    # Family 4b: the faults.audit owner model agrees with the pools.
    if audit:
        pod_audit = audit_pod(
            fabric,
            nodes,
            cxlfs=cxlfs,
            checkpoints=checkpoints,
            ghost_pools=ghost_pools,
            # Raw slot, not the lazy property: a dedup-off pod must not
            # grow an empty index just because the checker looked.
            chunk_index=getattr(fabric, "_chunk_index", None),
        )
        if not pod_audit.clean:
            report.add("frame-audit", "pod", pod_audit.describe())

    CHECK.tally("invariant_runs", "violations", len(report.violations), report)
    if raise_on_violation and not report.clean:
        raise CheckFailure(report.describe())
    return report


__all__ = [
    "InvariantReport",
    "InvariantViolation",
    "check_leaf_refcounts",
    "check_pod",
    "check_task",
]
