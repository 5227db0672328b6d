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
from repro.os.mm.pagetable import PTES_PER_LEAF
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


def _first_per_vma(slot: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Positions of the first ``mask`` PTE of each VMA (``slot`` holds each
    PTE's VMA position, ascending)."""
    idx = np.flatnonzero(mask)
    _, first = np.unique(slot[idx], return_index=True)
    return idx[first]


def check_task(task, report: Optional[InvariantReport] = None) -> InvariantReport:
    """Per-task MMU invariants (families 1 and 2 above).

    Called standalone (``report=None``) this is its own sweep and accounts
    to :data:`CHECK`; inside :func:`check_pod` the caller accounts instead.
    One pass over the task's present PTEs; violations are reported per VMA
    in address order, at most one per kind and VMA (the first vpn), except
    non-fabric CXL frames: each among a VMA's first 1024 CXL mappings.
    """
    standalone = report is None
    report = report if report is not None else InvariantReport()
    node = task.node
    mm = task.mm
    backing = mm.ckpt_backing
    holds = backing is None or backing.holds_frame_refs
    who = f"{task.comm}/{task.pid}@{node.name}"

    leaves = list(mm.pagetable.leaves())
    table = np.stack([leaf.ptes for _, leaf in leaves]) if leaves else \
        np.zeros((0, PTES_PER_LEAF), dtype=np.int64)
    present = (table & _P) != 0
    rows, cols = np.nonzero(present)
    leaf_index = np.array([i for i, _ in leaves], dtype=np.int64)
    vpns = leaf_index[rows] * PTES_PER_LEAF + cols
    ptes = table[rows, cols]

    # Each present PTE's VMA.  VMAs cannot overlap (insert() rejects that).
    vmas = list(mm.vmas)
    starts = np.array([v.start_vpn for v in vmas], dtype=np.int64)
    ends = np.array([v.end_vpn for v in vmas], dtype=np.int64)
    writable = np.array(
        [bool(v.perms & VmaPerms.WRITE) for v in vmas], dtype=bool
    )
    slot = np.searchsorted(starts, vpns, side="right") - 1
    inside = slot >= 0
    inside[inside] = vpns[inside] < ends[slot[inside]]
    outside = int(vpns.size - np.count_nonzero(inside))
    slot, vpns, ptes = slot[inside], vpns[inside], ptes[inside]
    frames = (ptes >> np.int64(PTE_FRAME_SHIFT)).astype(np.int64)
    hw_w = (ptes & _W) != 0
    on_cxl = (ptes & _CXL) != 0
    is_cow = (ptes & _COW) != 0

    found = []  # (vma position, check order, kind, detail)
    for i in _first_per_vma(slot, hw_w & is_cow).tolist():
        found.append((slot[i], 0, "pte-flags",
                      f"WRITE and COW both set at vpn {vpns[i]}"))
    for i in _first_per_vma(slot, hw_w & ~writable[slot]).tolist():
        found.append((slot[i], 1, "pte-flags",
                      f"hardware-writable PTE in read-only VMA at vpn {vpns[i]}"))
    for i in _first_per_vma(slot, hw_w & on_cxl).tolist():
        found.append((slot[i], 2, "tlb-proxy",
                      f"writable mapping of an immutable CXL replica at vpn {vpns[i]}"))

    # Frame-ownership cross-check: the flag decides which pool must own
    # (and refcount) the frame.
    cxl_at = np.flatnonzero(on_cxl)
    cxl_frames = frames[cxl_at]
    _, group, inverse = np.unique(
        slot[cxl_at], return_index=True, return_inverse=True
    )
    rank = np.arange(cxl_at.size) - group[inverse]
    foreign = (rank < 1024) & ~node.fabric.is_cxl_frame(cxl_frames)
    for i in np.flatnonzero(foreign).tolist():
        found.append((slot[cxl_at[i]], 3, "frame-owner",
                      f"CXL-flagged PTE maps non-fabric frame {cxl_frames[i]}"))
    pool = node.fabric.device.frames
    if cxl_at.size and holds:
        freed = pool.refcounts(cxl_frames) <= 0
        if not pool.quarantined:
            for i in _first_per_vma(slot[cxl_at], freed).tolist():
                found.append((slot[cxl_at[i]], 4, "frame-owner",
                              f"CXL frame {cxl_frames[i]} mapped but freed"))
    dram = node.dram
    if not dram.quarantined:
        local = ~on_cxl
        bad_range = local & ((frames < dram.base) | (frames >= dram.limit))
        bad_at = _first_per_vma(slot, bad_range)
        for i in bad_at.tolist():
            found.append((slot[i], 5, "frame-owner",
                          f"local PTE maps frame {frames[i]} outside "
                          f"{node.name}'s DRAM pool"))
        local_at = np.flatnonzero(local & ~np.isin(slot, slot[bad_at]))
        counts = dram.refcounts(frames[local_at])
        at = slot[local_at]
        for i in _first_per_vma(at, counts <= 0).tolist():
            found.append((at[i], 6, "frame-owner",
                          f"local frame {frames[local_at[i]]} mapped but freed"))
        # Shootdown soundness: hardware-writable implies exclusive.
        for i in _first_per_vma(at, hw_w[local_at] & (counts > 1)).tolist():
            found.append((at[i], 7, "tlb-proxy",
                          f"writable mapping of shared frame {frames[local_at[i]]} "
                          f"(refcount {counts[i]}) — missed CoW/shootdown"))
    found.sort(key=lambda item: (item[0], item[1]))
    for _, _, kind, detail in found:
        report.add(kind, who, detail)

    # Coverage: every present PTE accounted for by some VMA.
    if outside:
        report.add(
            "vma-coverage", who,
            f"{outside} present PTE(s) outside every VMA",
        )

    # cxl_resident leaves must map only CXL frames (they *are* checkpoint
    # storage; a local frame in one means a half-finished privatize).
    resident = np.array([leaf.cxl_resident for _, leaf in leaves], dtype=bool)
    mixed = resident & np.any(present & ((table & _CXL) == 0), axis=1)
    for i in np.flatnonzero(mixed).tolist():
        report.add(
            "leaf-residency", who,
            f"cxl_resident PTE leaf {leaf_index[i]} maps node-local memory",
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
