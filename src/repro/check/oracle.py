"""Differential address-space oracle (the paper's semantic-equivalence claim).

The simulator models page *placement* (which frame backs each vpn, on which
tier), not page *bytes*.  The oracle therefore checks equivalence at the
semantic level: every vpn of a task resolves to a **content label** saying
where its bytes logically come from —

* ``zero``          — an untouched anonymous page (demand-zero);
* ``snap:<vpn>``    — the bytes the parent held at ``vpn`` when it was
  snapshotted (private anonymous data, or a privately modified file page);
* ``file:<path>+<pgoff>`` — the backing file's pristine bytes;
* ``write:<op>``    — the bytes stored by post-restore write ``<op>`` of
  the driving scenario's ledger;
* ``anomaly``       — a page whose provenance cannot be justified from the
  mechanism's own data structures (an aliased CXL frame, a lost write, a
  page-cache mismatch); always a divergence.

A correct remote fork preserves labels exactly: a fresh child's resolved
view equals the parent snapshot, and children produced by *different*
mechanisms that replay the same write ledger resolve to identical views.
The resolver is deliberately suspicious — it re-derives every label from
PTE flags, checkpoint frame tables, page-cache state, and pool refcounts,
so a mechanism that silently drops a CoW, aliases the wrong CXL frame, or
skips a dirty page cannot launder the error through the ledger.

Everything here is a read-only walk: no faults are taken, no frames move,
and no virtual clock advances — running the oracle cannot perturb an
experiment's outputs (bench digests stay bit-identical).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.check import CHECK, CheckFailure
from repro.os.mm.pte import PTE_FRAME_SHIFT, PteFlags
from repro.os.mm.vma import VmaKind

_P = np.int64(int(PteFlags.PRESENT))
_W = np.int64(int(PteFlags.WRITE))
_D = np.int64(int(PteFlags.DIRTY))
_CXL = np.int64(int(PteFlags.CXL))

#: Content-label kinds (see module docstring).
K_ZERO, K_SNAP, K_FILE, K_WRITE, K_ANOM = 0, 1, 2, 3, 4

#: Anomaly codes carried in ``content_val`` for K_ANOM labels.
ANOM_STRUCT = -1  # VMA has no structural counterpart in the snapshot
ANOM_LOST_WRITE = -2  # ledger says written, page is not a private writable copy
ANOM_CXL_ALIAS = -3  # CXL mapping does not alias the checkpoint frame for this vpn
ANOM_CACHE_MISMATCH = -4  # clean file page maps a frame the page cache disowns
ANOM_WRONG_CHUNK = -5  # dedup'd CXL frame holds a different chunk than the seal recorded


def _file_codes(path: str, page_offsets: np.ndarray) -> np.ndarray:
    """Stable int64 labels for file-backed bytes: crc32(path) ⊕ page offset.

    ``hash()`` is salted per process; crc32 is stable across runs and across
    the independently built pods being compared, which is what makes file
    labels comparable between mechanisms.
    """
    code = np.int64(zlib.crc32(path.encode()) & 0xFFFFFFFF)
    return (code << np.int64(21)) + page_offsets.astype(np.int64)


def _decode(kind: int, val: int, vma: "VmaView") -> str:
    if kind == K_ZERO:
        return "zero"
    if kind == K_SNAP:
        return f"snap:vpn={val}"
    if kind == K_FILE:
        return f"file:{vma.path}+{int(val) & ((1 << 21) - 1)}"
    if kind == K_WRITE:
        return f"write:op={val}"
    reasons = {
        ANOM_STRUCT: "no-snapshot-vma",
        ANOM_LOST_WRITE: "lost-write",
        ANOM_CXL_ALIAS: "cxl-alias",
        ANOM_CACHE_MISMATCH: "pagecache-mismatch",
        ANOM_WRONG_CHUNK: "wrong-chunk",
    }
    return f"anomaly:{reasons.get(int(val), f'frame={val}')}"


@dataclass
class VmaView:
    """One VMA's structure plus the resolved content label of every page."""

    start_vpn: int
    npages: int
    perms: int
    kind: str
    path: Optional[str]
    file_offset_pages: int
    label: str
    content_kind: np.ndarray
    content_val: np.ndarray

    def signature(self) -> tuple:
        """Structural identity: layout + protections, ignoring content."""
        return (
            self.start_vpn,
            self.npages,
            self.perms,
            self.kind,
            self.path,
            self.file_offset_pages,
        )

    def copy(self) -> "VmaView":
        return VmaView(
            self.start_vpn,
            self.npages,
            self.perms,
            self.kind,
            self.path,
            self.file_offset_pages,
            self.label,
            self.content_kind.copy(),
            self.content_val.copy(),
        )


@dataclass
class AddressSpaceView:
    """A task's full logical address space: structure + content labels."""

    comm: str
    vmas: List[VmaView] = field(default_factory=list)

    def copy(self) -> "AddressSpaceView":
        return AddressSpaceView(self.comm, [v.copy() for v in self.vmas])

    @property
    def total_pages(self) -> int:
        return sum(v.npages for v in self.vmas)

    def find(self, vpn: int) -> Optional[VmaView]:
        for view in self.vmas:
            if view.start_vpn <= vpn < view.start_vpn + view.npages:
                return view
        return None

    def overlay_writes(self, writes: Dict[int, int]) -> "AddressSpaceView":
        """A copy with ledger writes applied (the *expected* child view)."""
        out = self.copy()
        for vpn, op in writes.items():
            view = out.find(vpn)
            if view is None:
                raise ValueError(f"ledger write at vpn {vpn} outside every VMA")
            i = vpn - view.start_vpn
            view.content_kind[i] = K_WRITE
            view.content_val[i] = op
        return out


@dataclass(frozen=True)
class Divergence:
    """First-class record of one diverging page."""

    vpn: int
    region: str
    expected: str
    actual: str

    def describe(self) -> str:
        return f"vpn {self.vpn} [{self.region}]: expected {self.expected}, got {self.actual}"


@dataclass
class DivergenceReport:
    """Outcome of diffing two views; structural problems listed separately."""

    label: str = ""
    structural: List[str] = field(default_factory=list)
    pages: List[Divergence] = field(default_factory=list)
    diverging_pages: int = 0

    @property
    def clean(self) -> bool:
        return not self.structural and not self.pages

    def first(self) -> Optional[Divergence]:
        return self.pages[0] if self.pages else None

    def describe(self) -> str:
        if self.clean:
            return f"{self.label}: equivalent"
        lines = [f"{self.label}: DIVERGED ({self.diverging_pages} page(s))"]
        lines += [f"  structural: {s}" for s in self.structural]
        lines += [f"  {d.describe()}" for d in self.pages[:8]]
        if self.diverging_pages > len(self.pages):
            lines.append(f"  ... {self.diverging_pages - len(self.pages)} more")
        return "\n".join(lines)


def capture_snapshot(task) -> AddressSpaceView:
    """Snapshot a (non-checkpoint-backed) parent's logical address space.

    Per VMA: present anonymous pages are the parent's own bytes
    (``snap:<vpn>``); untouched anonymous pages are demand-zero; file pages
    are the file's bytes unless the parent holds a privately modified copy
    (hardware-writable — a private file page only gains WRITE through a CoW
    break, and keeps it after ``season()`` clears the DIRTY bits).
    """
    mm = task.mm
    if mm.ckpt_backing is not None:
        raise ValueError(
            "capture_snapshot needs a self-contained parent; "
            f"{task.comm} is checkpoint-backed"
        )
    view = AddressSpaceView(task.comm)
    for vma in mm.vmas:
        n = vma.npages
        ptes = mm.pagetable.gather_ptes(vma.start_vpn, n)
        present = (ptes & _P) != 0
        kind = np.empty(n, dtype=np.int64)
        val = np.zeros(n, dtype=np.int64)
        if vma.kind is VmaKind.ANON or vma.path is None:
            kind[:] = K_ZERO
            kind[present] = K_SNAP
            val[present] = vma.start_vpn + np.nonzero(present)[0]
        else:
            offs = vma.file_offset_pages + np.arange(n, dtype=np.int64)
            kind[:] = K_FILE
            val[:] = _file_codes(vma.path, offs)
            private = present & ((ptes & (_W | _D)) != 0)
            kind[private] = K_SNAP
            val[private] = vma.start_vpn + np.nonzero(private)[0]
        view.vmas.append(
            VmaView(
                vma.start_vpn,
                n,
                int(vma.perms),
                vma.kind.value,
                vma.path,
                vma.file_offset_pages,
                vma.label,
                kind,
                val,
            )
        )
    return view


def resolve_view(
    task,
    snapshot: AddressSpaceView,
    writes: Optional[Dict[int, int]] = None,
    *,
    verify_exclusive: bool = True,
) -> AddressSpaceView:
    """Re-derive a child's content labels from its actual MMU/pool state.

    ``writes`` is the scenario ledger (vpn -> op index) of stores performed
    *through this task* since the snapshot.  Ledger entries do not grant
    labels for free: a written page must be a present, hardware-writable,
    node-local mapping (and, with ``verify_exclusive``, an exclusively
    owned frame) or it resolves to a lost-write anomaly.
    """
    writes = writes or {}
    mm = task.mm
    node = task.node
    backing = mm.ckpt_backing
    snap_by_start = {v.start_vpn: v for v in snapshot.vmas}
    out = AddressSpaceView(task.comm)
    for vma in mm.vmas:
        n = vma.npages
        ptes = mm.pagetable.gather_ptes(vma.start_vpn, n)
        present = (ptes & _P) != 0
        on_cxl = present & ((ptes & _CXL) != 0)
        hw_writable = (ptes & _W) != 0
        frames = (ptes >> np.int64(PTE_FRAME_SHIFT)).astype(np.int64)
        kind = np.empty(n, dtype=np.int64)
        val = np.zeros(n, dtype=np.int64)
        view = VmaView(
            vma.start_vpn,
            n,
            int(vma.perms),
            vma.kind.value,
            vma.path,
            vma.file_offset_pages,
            vma.label,
            kind,
            val,
        )
        out.vmas.append(view)
        svma = snap_by_start.get(vma.start_vpn)
        if svma is None or svma.npages != n:
            # Structural mismatch; diff_views reports it from the signatures.
            kind[:] = K_ANOM
            val[:] = ANOM_STRUCT
            continue
        # Default: the page still holds what the parent snapshot held.
        kind[:] = svma.content_kind
        val[:] = svma.content_val
        is_file = vma.kind is not VmaKind.ANON and vma.path is not None

        if backing is not None:
            ck = backing.checkpoint.pagetable.gather_ptes(vma.start_vpn, n)
            ck_present = (ck & _P) != 0
            ck_frames = (ck >> np.int64(PTE_FRAME_SHIFT)).astype(np.int64)
        else:
            ck_present = np.zeros(n, dtype=bool)
            ck_frames = None

        # Non-present pages: checkpoint-covered ones are lazily the parent's
        # (inherited); the rest resolve to the VMA's backing store.
        unbacked = ~present & ~ck_present
        if np.any(unbacked):
            if is_file:
                idx = np.nonzero(unbacked)[0]
                kind[unbacked] = K_FILE
                val[unbacked] = _file_codes(vma.path, vma.file_offset_pages + idx)
            else:
                kind[unbacked] = K_ZERO
                val[unbacked] = 0

        # CXL mappings must alias the checkpoint frame for the *same* vpn;
        # anything else is reading some other page's bytes.
        if np.any(on_cxl):
            if ck_frames is None:
                bad = on_cxl
            else:
                bad = on_cxl & ~(ck_present & (frames == ck_frames))
            kind[bad] = K_ANOM
            val[bad] = ANOM_CXL_ALIAS
            # Aliasing checks out for the rest: inherited label stands.

            # Content cross-check (repro.dedup): the vpn-aliasing check
            # above is blind to a seal that interned a page into the wrong
            # hash bucket — the checkpoint's own PTE maps the wrong frame,
            # and the child faithfully aliases it.  With a content-addressed
            # image, the chunk registered for the mapped frame must match
            # the code the seal recorded for this vpn.
            if backing is not None:
                bk = backing.checkpoint
                gather = getattr(bk, "gather_chunk_codes", None)
                expected_codes = (
                    gather(vma.start_vpn, n) if gather is not None else None
                )
                if expected_codes is not None:
                    index = getattr(
                        getattr(node, "fabric", None), "_chunk_index", None
                    )
                    if index is not None:
                        actual_codes = index.codes_for(frames)
                        wrong = (
                            on_cxl
                            & (expected_codes != 0)
                            & (actual_codes != 0)
                            & (expected_codes != actual_codes)
                        )
                        kind[wrong] = K_ANOM
                        val[wrong] = ANOM_WRONG_CHUNK


        # Clean local file pages must map the frame the page cache holds for
        # (path, pgoff) — that is the only way their bytes are the file's.
        # Checkpoint-covered vpns are exempt: a read-only local copy there is
        # a checkpoint copy-on-access (MoA/Mitosis) realizing the inherited
        # label, not a page-cache alias.
        if is_file:
            clean = present & ~on_cxl & ~hw_writable & ~ck_present
            if np.any(clean):
                idx = np.nonzero(clean)[0]
                offs = vma.file_offset_pages + idx
                lo = int(offs.min())
                hi = int(offs.max()) + 1
                cached, pc_frames = node.pagecache.peek_range(vma.path, lo, hi - lo)
                sel = offs - lo
                matches = cached[sel] & (pc_frames[sel] == frames[idx])
                # A dropped-then-unmapped cache entry is fine (the mapping's
                # reference keeps the bytes alive); a *different* cached
                # frame for the same offset is not.
                conflicted = cached[sel] & ~matches
                kind[idx] = K_FILE
                val[idx] = _file_codes(vma.path, offs)
                bad_idx = idx[conflicted]
                kind[bad_idx] = K_ANOM
                val[bad_idx] = ANOM_CACHE_MISMATCH

        # Ledger overlay, last: a recorded write only earns its label if the
        # page is really a private, hardware-writable, node-local copy.
        for vpn, op in writes.items():
            if not (vma.start_vpn <= vpn < vma.start_vpn + n):
                continue
            i = vpn - vma.start_vpn
            ok = bool(present[i]) and bool(hw_writable[i]) and not bool(on_cxl[i])
            if ok and verify_exclusive:
                ok = node.dram.refcount(int(frames[i])) == 1
            if ok:
                kind[i] = K_WRITE
                val[i] = op
            else:
                kind[i] = K_ANOM
                val[i] = ANOM_LOST_WRITE
    return out


def diff_views(
    expected: AddressSpaceView,
    actual: AddressSpaceView,
    *,
    label: str = "",
    limit: int = 16,
) -> DivergenceReport:
    """Structural + first-divergence page diff of two views."""
    report = DivergenceReport(label=label or f"{expected.comm} vs {actual.comm}")
    exp_by_sig = {v.signature(): v for v in expected.vmas}
    act_by_sig = {v.signature(): v for v in actual.vmas}
    for sig in exp_by_sig:
        if sig not in act_by_sig:
            report.structural.append(f"missing VMA {sig}")
    for sig in act_by_sig:
        if sig not in exp_by_sig:
            report.structural.append(f"unexpected VMA {sig}")
    for sig, evma in exp_by_sig.items():
        avma = act_by_sig.get(sig)
        if avma is None:
            continue
        neq = (evma.content_kind != avma.content_kind) | (
            evma.content_val != avma.content_val
        )
        hits = np.nonzero(neq)[0]
        if hits.size == 0:
            continue
        report.diverging_pages += int(hits.size)
        for i in hits[: max(0, limit - len(report.pages))]:
            vpn = evma.start_vpn + int(i)
            report.pages.append(
                Divergence(
                    vpn=vpn,
                    region=evma.label or evma.path or evma.kind,
                    expected=_decode(int(evma.content_kind[i]), int(evma.content_val[i]), evma),
                    actual=_decode(int(avma.content_kind[i]), int(avma.content_val[i]), avma),
                )
            )
    return report


def capture_frames(task) -> Dict[int, Tuple[np.ndarray, np.ndarray]]:
    """Per-VMA (present mask, frames) — raw material for pristineness checks."""
    out: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
    for vma in task.mm.vmas:
        ptes = task.mm.pagetable.gather_ptes(vma.start_vpn, vma.npages)
        present = (ptes & _P) != 0
        frames = (ptes >> np.int64(PTE_FRAME_SHIFT)).astype(np.int64)
        frames[~present] = -1
        out[vma.start_vpn] = (present, frames)
    return out


class DifferentialOracle:
    """Snapshot a parent once; verify any number of children against it.

    The oracle's contract, per the paper: *any* mechanism's fresh child
    resolves to exactly the parent snapshot, a child that replayed a write
    ledger resolves to snapshot ⊕ ledger, and the parent itself stays
    untouched by everything its children do.
    """

    def __init__(self, parent_task, *, label: str = "") -> None:
        self.label = label or parent_task.comm
        self.parent_task = parent_task
        self.snapshot = capture_snapshot(parent_task)
        self._parent_frames = capture_frames(parent_task)

    # -- children ----------------------------------------------------------

    def verify_child(
        self,
        task,
        writes: Optional[Dict[int, int]] = None,
        *,
        label: str = "child",
        raise_on_divergence: bool = True,
    ) -> DivergenceReport:
        """Diff one child against snapshot ⊕ ledger."""
        writes = writes or {}
        expected = (
            self.snapshot.overlay_writes(writes) if writes else self.snapshot
        )
        actual = resolve_view(task, self.snapshot, writes)
        report = diff_views(expected, actual, label=f"{self.label}/{label}")
        self._account(report, raise_on_divergence)
        return report

    def compare_children(
        self,
        task_a,
        task_b,
        writes: Optional[Dict[int, int]] = None,
        *,
        label: str = "cross-mechanism",
        raise_on_divergence: bool = True,
    ) -> DivergenceReport:
        """Diff two children (different mechanisms, same ledger) directly."""
        view_a = resolve_view(task_a, self.snapshot, writes)
        view_b = resolve_view(task_b, self.snapshot, writes)
        report = diff_views(view_a, view_b, label=f"{self.label}/{label}")
        self._account(report, raise_on_divergence)
        return report

    # -- the parent --------------------------------------------------------

    def verify_parent_pristine(
        self,
        written: Iterable[int] = (),
        *,
        raise_on_divergence: bool = True,
    ) -> DivergenceReport:
        """Children must never mutate the parent: same frames, same layout,
        except at vpns the parent itself wrote since the snapshot."""
        written_set = set(written)
        report = DivergenceReport(label=f"{self.label}/parent-pristine")
        now = capture_frames(self.parent_task)
        for start, (present0, frames0) in self._parent_frames.items():
            cur = now.get(start)
            if cur is None or cur[0].size != present0.size:
                report.structural.append(f"parent VMA at vpn {start} changed shape")
                continue
            present1, frames1 = cur
            changed = (present0 != present1) | (frames0 != frames1)
            hits = np.nonzero(changed)[0]
            for i in hits:
                vpn = start + int(i)
                if vpn in written_set:
                    continue
                report.diverging_pages += 1
                if len(report.pages) < 16:
                    report.pages.append(
                        Divergence(
                            vpn=vpn,
                            region=f"vma@{start}",
                            expected=f"frame={int(frames0[i])}",
                            actual=f"frame={int(frames1[i])}",
                        )
                    )
        for start in now:
            if start not in self._parent_frames:
                report.structural.append(f"parent grew a VMA at vpn {start}")
        self._account(report, raise_on_divergence)
        return report

    def _account(self, report: DivergenceReport, raise_on_divergence: bool) -> None:
        found = report.diverging_pages + len(report.structural)
        CHECK.tally("oracle_runs", "divergences", found, report)
        if raise_on_divergence and not report.clean:
            raise CheckFailure(report.describe())


__all__ = [
    "AddressSpaceView",
    "DifferentialOracle",
    "Divergence",
    "DivergenceReport",
    "VmaView",
    "capture_frames",
    "capture_snapshot",
    "diff_views",
    "resolve_view",
    "K_ZERO",
    "K_SNAP",
    "K_FILE",
    "K_WRITE",
    "K_ANOM",
]
