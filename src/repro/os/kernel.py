"""Per-node kernel: process lifecycle, memory population, and page faults.

The fault path is the load-bearing piece.  It is vectorized per page-table
leaf (numpy masks over 512-entry PTE arrays) because the simulator routinely
faults hundreds of thousands of pages per invocation, but the *semantics*
are per-page and mirror Linux + the CXLfork patch:

* writes to COW-marked present pages copy the page to local DRAM
  (``COW_LOCAL`` / ``COW_CXL`` depending on where the source lives);
* non-present pages in checkpoint-backed ranges are resolved by the
  process's tiering policy (copy to local vs map the CXL frame in place);
* non-present pages in ordinary VMAs follow anon/file fault rules through
  the per-node page cache;
* OS-level PTE updates to *shared* leaves (checkpoint-attached or forked)
  first privatize the leaf — the PTE-leaf CoW of §4.2.1 — while
  hardware-style A/D bit updates go through the shared leaf directly, which
  is exactly what lets hybrid tiering harvest access bits pod-wide.

Frame lifetime is uniformly refcounted: every mapping holds one reference
(page cache holds its own), so fork/CoW/exit compose without special cases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional, Sequence

import numpy as np

from repro.os.mm.faults import (
    DEFAULT_FAULT_COSTS,
    WARMING_KINDS,
    FaultCostModel,
    FaultKind,
)
from repro.os.mm.pagetable import LEAF_SHIFT, PTES_PER_LEAF, PageTable, PteLeaf
from repro.os.mm.pte import (
    PTE_FRAME_SHIFT,
    PteFlags,
    make_ptes,
    ptes_flag_mask,
)
from repro.os.mm.vma import Vma, VmaKind, VmaPerms
from repro.os.proc.task import Task, TaskState
from repro.ras import RAS, verify_frames
from repro.sim.units import PAGE_SIZE
from repro.telemetry import TRACE

if TYPE_CHECKING:  # pragma: no cover
    from repro.os.node import ComputeNode

_PRESENT = np.int64(int(PteFlags.PRESENT))
_WRITE = np.int64(int(PteFlags.WRITE))
_ACCESSED = np.int64(int(PteFlags.ACCESSED))
_DIRTY = np.int64(int(PteFlags.DIRTY))
_COW = np.int64(int(PteFlags.COW))
_CXL = np.int64(int(PteFlags.CXL))
#: The PTEs of a leaf that does not exist.
_NO_LEAF = np.zeros(PTES_PER_LEAF, dtype=np.int64)
_NO_LEAF.setflags(write=False)


@dataclass
class FaultStats:
    """What a batch of memory accesses cost, by fault kind.

    Also tallies where the touched pages ended up (local vs CXL) after all
    transitions, so callers don't need a second page-table pass.
    """

    #: Per-kind fault tallies.  A plain dict, not a Counter: the fault path
    #: allocates one FaultStats per access-table row it resolves, and
    #: Counter's __init__/update overhead was measurable at cluster scale.
    counts: dict = field(default_factory=dict)
    cost_ns: float = 0.0
    touched_local: int = 0
    touched_cxl: int = 0
    #: Running total of the cache-warming kinds (see
    #: :data:`repro.os.mm.faults.WARMING_KINDS`), kept incrementally so
    #: hot callers never re-walk the counter.
    warmed: int = 0
    #: Per-row tallies of one :meth:`Kernel.access_range` table (int64
    #: arrays, one entry per row; the fields above are their totals).
    #: None on stats that no access table produced.
    rows_touched_local: Optional[np.ndarray] = None
    rows_touched_cxl: Optional[np.ndarray] = None
    rows_warmed: Optional[np.ndarray] = None

    def add(self, kind: FaultKind, n: int, cost_each_ns: float) -> None:
        if n <= 0:
            return
        counts = self.counts
        counts[kind] = counts.get(kind, 0) + n
        self.cost_ns += n * cost_each_ns
        if kind in WARMING_KINDS:
            self.warmed += n

    def add_cost(self, ns: float) -> None:
        self.cost_ns += ns

    def merge(self, other: "FaultStats") -> "FaultStats":
        counts = self.counts
        for kind, n in other.counts.items():
            counts[kind] = counts.get(kind, 0) + n
        self.cost_ns += other.cost_ns
        self.touched_local += other.touched_local
        self.touched_cxl += other.touched_cxl
        self.warmed += other.warmed
        return self

    @property
    def touched(self) -> int:
        """Pages this batch touched (post-fault placement tally)."""
        return self.touched_local + self.touched_cxl

    @property
    def total_faults(self) -> int:
        return sum(self.counts.values())

    def count(self, kind: FaultKind) -> int:
        return self.counts.get(kind, 0)


@dataclass
class CheckpointBacking:
    """Links a restored address space to its CXL checkpoint and policy."""

    checkpoint: Any  # exposes .pagetable (the checkpointed PageTable)
    policy: Any  # tiering policy (see repro.tiering)
    #: Whether mapped checkpoint frames are refcounted on the fabric
    #: (True for CXL-resident checkpoints; False for Mitosis, whose
    #: "checkpoint" lives in the parent node's private memory).
    holds_frame_refs: bool = True


class SegfaultError(RuntimeError):
    """Access violated VMA permissions (test aid; real code would SIGSEGV)."""


class NodeFailedError(RuntimeError):
    """An operation targeted a crashed node, or state lost with one."""


class Kernel:
    """The OS instance of one compute node."""

    def __init__(
        self,
        node: "ComputeNode",
        fault_costs: Optional[FaultCostModel] = None,
    ) -> None:
        self.node = node
        self.fault_costs = fault_costs or DEFAULT_FAULT_COSTS
        self._tasks: dict[int, Task] = {}

    # -- conveniences -----------------------------------------------------------

    @property
    def clock(self):
        return self.node.clock

    @property
    def latency(self):
        return self.node.fabric.latency

    def fault_cost(self, kind: FaultKind, **kw) -> float:
        return self.fault_costs.cost_ns(kind, self.latency, **kw)

    def tasks(self) -> list[Task]:
        return list(self._tasks.values())

    def _check_alive(self) -> None:
        """Raise :class:`NodeFailedError` if this kernel's node has crashed.

        Every public entry point calls this — except :meth:`exit_task`,
        which must keep working on a crashed node because ``node.fail()``
        itself uses it and pod janitors tear down dead nodes' tasks.
        """
        if getattr(self.node, "failed", False):
            raise NodeFailedError(f"node {self.node.name!r} has failed")

    # -- process lifecycle --------------------------------------------------------

    def spawn_task(self, comm: str, *, container=None) -> Task:
        """Create a fresh task (an execve'd process with an empty mm)."""
        self._check_alive()
        namespaces = container.namespaces if container is not None else None
        cgroup = container.cgroup if container is not None else None
        from repro.os.proc.namespaces import NamespaceSet

        ns = namespaces if namespaces is not None else NamespaceSet()
        task = Task(
            comm=comm,
            kernel=self,
            pid=ns.pid.alloc_pid(),
            namespaces=ns,
            cgroup=cgroup,
        )
        self._tasks[task.tid] = task
        TRACE.count("kernel.task_spawn")
        return task

    def exit_task(self, task: Task) -> None:
        """Tear down a task: unmap everything, drop all frame references."""
        if task.state is TaskState.DEAD:
            raise RuntimeError(f"double exit of {task}")
        local_chunks: list[np.ndarray] = []
        cxl_chunks: list[np.ndarray] = []
        for _, leaf in task.mm.pagetable.leaves():
            present = ptes_flag_mask(leaf.ptes, PteFlags.PRESENT)
            if leaf.cxl_resident:
                # Attached checkpoint leaf: we hold refs on its CXL frames
                # (taken at attach time) but the leaf contents are not ours.
                frames = (leaf.ptes[present] >> PTE_FRAME_SHIFT).astype(np.int64)
                if frames.size:
                    cxl_chunks.append(frames)
                continue
            frames = (leaf.ptes[present] >> PTE_FRAME_SHIFT).astype(np.int64)
            if frames.size == 0:
                continue
            on_cxl = ptes_flag_mask(leaf.ptes[present], PteFlags.CXL)
            if np.any(on_cxl):
                cxl_chunks.append(frames[on_cxl])
            local = frames[~on_cxl]
            if local.size:
                local_chunks.append(local)
        backing = task.mm.ckpt_backing
        holds_refs = backing is None or backing.holds_frame_refs
        if cxl_chunks and holds_refs:
            self.node.fabric.put_frames(np.concatenate(cxl_chunks))
        if local_chunks:
            self.node.dram.put(np.concatenate(local_chunks))
        # Drop leaf references (attached checkpoint leaves stay alive for
        # other sharers; private leaves are garbage collected with the task).
        for leaf_index in list(task.mm.pagetable.leaf_indices()):
            task.mm.pagetable.detach_leaf(leaf_index)
        task.mm.vmas.detach_all()
        if task.cgroup is not None:
            task.cgroup.uncharge(task.mm.owned_local_pages * PAGE_SIZE)
        task.mm.owned_local_pages = 0
        task.state = TaskState.DEAD
        self._tasks.pop(task.tid, None)
        TRACE.count("kernel.task_exit")

    # -- memory population (cold-start construction) ----------------------------------

    def alloc_local_frames(self, task: Task, count: int) -> np.ndarray:
        """Allocate local frames on behalf of ``task``'s address space.

        Charges the pages to the process's owned-memory accounting (the
        Fig. 7b metric) and, when the task runs inside a cgroup with a
        memory limit, to that cgroup — raising
        :class:`~repro.cxl.allocator.OutOfMemoryError` on limit breach,
        like the kernel's memcg charge path.
        """
        self._check_alive()
        if task.cgroup is not None and not task.cgroup.charge(count * PAGE_SIZE):
            from repro.cxl.allocator import OutOfMemoryError

            dram = self.node.dram
            raise OutOfMemoryError(
                dram.name, count, dram.free_frames, dram.capacity_frames
            )
        frames = self.node.dram.alloc_many(count)
        task.mm.owned_local_pages += count
        return frames

    def map_anon_region(
        self,
        task: Task,
        npages: int,
        *,
        label: str = "",
        populate: bool = True,
        flags: int = int(
            PteFlags.PRESENT
            | PteFlags.WRITE
            | PteFlags.USER
            | PteFlags.ACCESSED
            | PteFlags.DIRTY
        ),
    ) -> Vma:
        """mmap an anonymous RW region, optionally populating it eagerly.

        Population models a function writing its state during init; the time
        for that is part of the function's measured init latency, so no
        fault costs are charged here.
        """
        self._check_alive()
        vma = task.mm.add_vma(
            npages, VmaPerms.READ | VmaPerms.WRITE, kind=VmaKind.ANON, label=label
        )
        if populate:
            frames = self.alloc_local_frames(task, npages)
            task.mm.pagetable.map_range(vma.start_vpn, frames, flags)
        return vma

    def map_file_region(
        self,
        task: Task,
        path: str,
        npages: int,
        *,
        writable: bool = False,
        label: str = "",
        populate: bool = True,
    ) -> Vma:
        """mmap a private file-backed region (library/runtime image)."""
        self._check_alive()
        perms = VmaPerms.READ | (VmaPerms.WRITE if writable else VmaPerms.NONE)
        self.node.rootfs.ensure(path, size_bytes=npages * PAGE_SIZE)
        vma = task.mm.add_vma(
            npages,
            perms,
            kind=VmaKind.FILE_PRIVATE,
            path=path,
            label=label or f"map:{path}",
        )
        if populate:
            _, frames = self.node.pagecache.ensure_range(path, 0, npages)
            self.node.dram.get(frames)  # the mapping's reference
            flags = PteFlags.PRESENT | PteFlags.USER | PteFlags.ACCESSED
            if writable:
                flags |= PteFlags.COW  # private file: first write copies
            task.mm.pagetable.map_range(vma.start_vpn, frames, int(flags))
        return vma

    # -- local fork -----------------------------------------------------------------

    #: Handler cost of duplicating one VMA struct during fork.
    FORK_PER_VMA_NS = 300.0
    #: Handler cost per page-table leaf beyond the data copy itself.
    FORK_PER_LEAF_NS = 150.0

    def local_fork(
        self, parent: Task, *, lazy_file_pages: bool = True
    ) -> tuple[Task, FaultStats]:
        """Fork: duplicate the address space with CoW sharing.

        ``lazy_file_pages`` models the zygote-style local fork the paper
        compares against (§7.1): clean private file mappings (libraries) are
        *not* carried into the child, which repopulates them lazily from the
        page cache on first touch.
        """
        self._check_alive()
        if parent.state is TaskState.DEAD:
            raise RuntimeError(f"cannot fork dead task {parent.comm!r}")
        stats = FaultStats()
        child = Task(
            comm=parent.comm,
            kernel=self,
            pid=parent.namespaces.pid.alloc_pid(),
            regs=parent.regs.copy(),
            fdtable=parent.fdtable.copy(),
            namespaces=parent.namespaces,
            cgroup=parent.cgroup,
            parent=parent,
        )
        self._tasks[child.tid] = child
        child.mm.ckpt_backing = parent.mm.ckpt_backing

        # Duplicate the VMA tree (child gets private copies of every leaf).
        vma_count = 0
        for leaf in parent.mm.vmas.leaves():
            child.mm.vmas.attach_leaf(leaf)
        for pos in range(child.mm.vmas.leaf_count):
            child.mm.vmas.privatize_leaf(pos)
        for vma in child.mm.vmas:
            child.mm.note_range_used(vma.start_vpn, vma.npages)
            vma_count += 1
        stats.add_cost(vma_count * self.FORK_PER_VMA_NS)

        # Duplicate page tables: copy each leaf, write-protect writable
        # anon pages on both sides (CoW), and take mapping references.
        leaf_copy_ns = self.latency.page_copy_ns(src_cxl=False, dst_cxl=False)
        shootdowns = 0
        for leaf_index, pleaf in list(parent.mm.pagetable.leaves()):
            if pleaf.shared:
                pleaf, copied = parent.mm.pagetable.privatize_leaf(leaf_index)
                if copied:
                    stats.add(FaultKind.PTE_LEAF_COW, 1, self.fault_cost(FaultKind.PTE_LEAF_COW))
            ptes = pleaf.ptes
            present = (ptes & _PRESENT) != 0
            writable = present & ((ptes & _WRITE) != 0)
            if np.any(writable):
                ptes[writable] = (ptes[writable] & ~_WRITE) | _COW
                shootdowns += int(np.count_nonzero(writable))
            child_ptes = ptes.copy()
            if lazy_file_pages:
                # Clean, read-only, non-CoW, non-CXL mappings are private
                # file pages: drop them from the child.
                file_clean = (
                    present
                    & ((ptes & _WRITE) == 0)
                    & ((ptes & _COW) == 0)
                    & ((ptes & _DIRTY) == 0)
                    & ((ptes & _CXL) == 0)
                )
                child_ptes[file_clean] = 0
            child.mm.pagetable.install_leaf(leaf_index, PteLeaf(child_ptes))
            child_present = (child_ptes & _PRESENT) != 0
            frames = (child_ptes[child_present] >> PTE_FRAME_SHIFT).astype(np.int64)
            if frames.size:
                on_cxl = ptes_flag_mask(child_ptes[child_present], PteFlags.CXL)
                backing = parent.mm.ckpt_backing
                holds = backing is None or backing.holds_frame_refs
                if np.any(on_cxl) and holds:
                    self.node.fabric.get_frames(frames[on_cxl])
                local = frames[~on_cxl]
                if local.size:
                    self.node.dram.get(local)
            stats.add_cost(leaf_copy_ns + self.FORK_PER_LEAF_NS)
        if shootdowns:
            stats.add_cost(self.fault_costs.tlb.shootdown_cost_ns(shootdowns, batched=True))
        self.clock.advance(stats.cost_ns)
        if TRACE.active():
            TRACE.add_span(
                "kernel.local_fork",
                self.clock.now - int(round(stats.cost_ns)),
                stats.cost_ns,
                clock=self.clock,
                parent=parent.pid,
                child=child.pid,
            )
            TRACE.count("kernel.forks")
        return child, stats

    # -- the fault path ----------------------------------------------------------------

    def access_range(
        self,
        task: Task,
        start_vpn: int | Sequence[int],
        npages: int | Sequence[int],
        *,
        write: bool | Sequence[bool],
        touched_mask: Optional[np.ndarray] | Sequence[Optional[np.ndarray]] = None,
    ) -> FaultStats:
        """Touch ``[start_vpn, start_vpn+npages)``, resolving faults.

        ``touched_mask`` restricts the touch to a subset of the range (the
        invocation engine samples working sets).  The range must lie within
        one VMA.  Returns the fault statistics; virtual time is advanced.

        **Table form.**  ``start_vpn``, ``npages`` and ``write`` may instead
        be equal-length sequences, one row per range, with ``touched_mask``
        a matching sequence of masks (a ``None`` entry, or ``None`` for the
        whole argument, touches every page of the row).  A scalar call is
        the one-row table.  Rows take effect in order, exactly as one call
        per row would: each row advances the clock by its own cost, traces
        its own faults and raises its own :class:`SegfaultError`, with the
        earlier rows applied.  The leading run of *warm* rows is resolved
        in one vectorized pass (see :meth:`_touch_warm_rows`); from the
        first row that is not warm on, rows take the per-chunk fault path.

        The returned stats aggregate every row; ``rows_touched_cxl``,
        ``rows_touched_local`` and ``rows_warmed`` hold the per-row tallies.
        """
        self._check_alive()
        if np.ndim(start_vpn) == 0:
            starts, sizes, writes = (start_vpn,), (npages,), (write,)
            masks = (touched_mask,)
        else:
            starts, sizes, writes = start_vpn, npages, write
            masks = touched_mask if touched_mask is not None else (None,) * len(starts)
        n = len(starts)
        row_cxl = np.zeros(n, dtype=np.int64)
        row_local = np.zeros(n, dtype=np.int64)
        row_warmed = np.zeros(n, dtype=np.int64)
        # A lone row gains nothing from the table pass, and an alarm already
        # due fires on row 0's zero-cost clock advance, before row 1 runs.
        first = 0
        if n > 1 and not self.clock.alarm_due():
            first = self._touch_warm_rows(
                task, starts, sizes, writes, masks, row_cxl, row_local
            )
        total = FaultStats(
            touched_local=int(row_local[:first].sum()),
            touched_cxl=int(row_cxl[:first].sum()),
        )
        for r in range(first, n):
            stats = self._access_row(task, starts[r], sizes[r], writes[r], masks[r])
            total.merge(stats)
            row_cxl[r] = stats.touched_cxl
            row_local[r] = stats.touched_local
            row_warmed[r] = stats.warmed
        total.rows_touched_cxl = row_cxl
        total.rows_touched_local = row_local
        total.rows_warmed = row_warmed
        return total

    def _touch_warm_rows(
        self,
        task: Task,
        starts: Sequence[int],
        sizes: Sequence[int],
        writes: Sequence[bool],
        masks: Sequence[Optional[np.ndarray]],
        row_cxl: np.ndarray,
        row_local: np.ndarray,
    ) -> int:
        """Resolve the leading warm rows of an access table in one pass.

        A row is *warm* when it passes its VMA range/permission checks and
        every page it touches is present (so its leaves exist) and, on a
        write row, not CoW: touching it only sets A/D bits and costs 0 ns.
        The touched PTEs of every row are gathered at once from a stack of
        the touched leaves.  The rows before the first non-warm row get
        their A/D bits here, written through shared leaves like the
        per-chunk path's (§4.3), and their placement tallies in ``row_cxl``
        / ``row_local``.  Returns the index of the first non-warm row
        (``len(starts)`` when all are warm); nothing from it on is touched.
        """
        n = len(starts)
        starts = np.asarray(starts, dtype=np.int64)
        sizes = np.asarray(sizes, dtype=np.int64)
        writes = np.asarray(writes, dtype=bool)
        vma_lo, vma_hi, vma_writable = task.mm.vmas.bounds()
        if vma_lo.size == 0:
            return 0
        pos = np.searchsorted(vma_lo, starts, side="right") - 1
        at = np.maximum(pos, 0)
        bad = (
            (pos < 0)
            | (starts >= vma_hi[at])
            | (starts + sizes > vma_hi[at])
            | (writes & ~vma_writable[at])
        )

        # Flat touched positions -> (row, vpn) via the rows' offsets.
        parts = [
            np.ones(size, dtype=bool) if mask is None else mask
            for mask, size in zip(masks, sizes.tolist())
        ]
        lens = np.fromiter(map(len, parts), dtype=np.int64, count=n)
        if not np.array_equal(lens, sizes):
            raise ValueError("touched_mask length must equal npages")
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        flat = np.flatnonzero(np.concatenate(parts))
        row = np.searchsorted(offsets, flat, side="right") - 1
        vpns = starts[row] + (flat - offsets[row])
        leaf_ids, which = np.unique(vpns >> LEAF_SHIFT, return_inverse=True)
        cols = vpns & (PTES_PER_LEAF - 1)
        leaves = task.mm.pagetable.leaves_at(leaf_ids.tolist())
        # A missing leaf reads as all-zero PTEs: not present, so not warm.
        # (The spare zero row keeps np.stack valid when nothing is touched.)
        table = np.stack(
            [_NO_LEAF if leaf is None else leaf.ptes for leaf in leaves] or [_NO_LEAF]
        )
        ptes = table[which, cols]
        faulting = (ptes & _PRESENT) == 0
        faulting |= writes[row] & ((ptes & _COW) != 0)
        bad[row[faulting]] = True
        first = int(np.argmax(bad)) if bad.any() else n

        # A/D updates for the warm rows' pages (``row`` is sorted, so they
        # are a prefix); only leaves with a bit still clear are written.
        k = int(np.searchsorted(row, first))
        ptes, which, cols, row = ptes[:k], which[:k], cols[:k], row[:k]
        dirty = writes[row] & ((ptes & _WRITE) != 0)
        bits = np.where(dirty, _ACCESSED | _DIRTY, _ACCESSED)
        stale = (ptes & bits) != bits
        if stale.any():
            # ufunc.at, not fancy |=: a page touched by a read and a write
            # row must keep both rows' bits.
            np.bitwise_or.at(table, (which[stale], cols[stale]), bits[stale])
            for j in np.unique(which[stale]).tolist():
                leaves[j].ptes[:] = table[j]
        touched = np.bincount(row, minlength=first)
        on_cxl = np.bincount(row[(ptes & _CXL) != 0], minlength=first)
        row_cxl[:first] = on_cxl
        row_local[:first] = touched - on_cxl
        return first

    def _access_row(
        self,
        task: Task,
        start_vpn: int,
        npages: int,
        write: bool,
        touched_mask: Optional[np.ndarray],
    ) -> FaultStats:
        """One table row through the per-chunk fault path."""
        self._check_alive()
        vma = task.mm.vmas.find(start_vpn)
        if vma is None or start_vpn + npages > vma.end_vpn:
            raise SegfaultError(
                f"{task.comm}/{task.pid}: access outside VMA at vpn {start_vpn}"
            )
        if write and not (vma.perms & VmaPerms.WRITE):
            raise SegfaultError(
                f"{task.comm}/{task.pid}: write to read-only VMA at vpn {start_vpn}"
            )
        stats = FaultStats()
        # Normalize the touch mask once, outside the per-chunk loop;
        # ``None`` means "every page touched" and avoids materializing an
        # all-ones array per chunk.
        mask = None
        if touched_mask is not None:
            mask = np.asarray(touched_mask, dtype=bool)
            if mask.shape != (npages,):
                raise ValueError("touched_mask length must equal npages")
        pagetable = task.mm.pagetable
        offset = 0
        vpn = start_vpn
        end = start_vpn + npages
        while vpn < end:
            leaf_index = vpn >> LEAF_SHIFT
            lo = vpn & (PTES_PER_LEAF - 1)
            hi = min(PTES_PER_LEAF, lo + (end - vpn))
            chunk_len = hi - lo
            sub = None
            n_sub = chunk_len
            if mask is not None:
                sub = mask[offset : offset + chunk_len]
                # One reduction does double duty: the empty-chunk skip here
                # and the touched-page count _access_chunk needs anyway.
                n_sub = int(np.count_nonzero(sub))
            if n_sub:
                # Create the leaf only when a page in this chunk is actually
                # touched (a touch of a non-present page always installs a
                # PTE); all-False chunks must not allocate empty leaves,
                # which would inflate local_table_pages() for sparse sets.
                leaf = pagetable.leaf_or_none(leaf_index)
                if leaf is None:
                    leaf = pagetable.ensure_leaf(leaf_index)
                self._access_chunk(
                    task, vma, leaf, leaf_index, slice(lo, hi), vpn, sub,
                    n_sub, write, stats,
                )
            offset += chunk_len
            vpn += chunk_len
        self.clock.advance(stats.cost_ns)
        if TRACE.active() and stats.total_faults:
            for kind, n in stats.counts.items():
                TRACE.count(f"kernel.fault.{kind.value}", n)
            TRACE.observe("kernel.fault_batch_cost_ns", stats.cost_ns)
        return stats

    def _privatize_pte_leaf(
        self, task: Task, leaf_index: int, stats: FaultStats
    ) -> PteLeaf:
        leaf, copied = task.mm.pagetable.privatize_leaf(leaf_index)
        if copied:
            stats.add(FaultKind.PTE_LEAF_COW, 1, self.fault_cost(FaultKind.PTE_LEAF_COW))
        return leaf

    def _register_vma_files(self, task: Task, vma: Vma, stats: FaultStats) -> Vma:
        """Lazily privatize the VMA leaf and register file callbacks (§4.2)."""
        found = task.mm.vmas.find_leaf(vma.start_vpn)
        if found is None:  # pragma: no cover - defensive
            raise SegfaultError(f"VMA vanished at vpn {vma.start_vpn}")
        pos, _ = found
        leaf, _copied = task.mm.vmas.privatize_leaf(pos)
        to_register = [
            v for v in leaf.vmas if v.is_file_backed() and not v.file_registered
        ]
        stats.add(
            FaultKind.VMA_LEAF_COW,
            1,
            self.fault_cost(FaultKind.VMA_LEAF_COW, file_vmas_to_register=len(to_register)),
        )
        replacement = None
        from dataclasses import replace as dc_replace

        for v in to_register:
            new = dc_replace(v, file_registered=True)
            task.mm.vmas.replace_vma(pos, v, new)
            if v == vma:
                replacement = new
        return replacement if replacement is not None else vma

    def _access_chunk(
        self,
        task: Task,
        vma: Vma,
        leaf: PteLeaf,
        leaf_index: int,
        sl: slice,
        vpn0: int,
        sub: Optional[np.ndarray],
        n_touched: int,
        write: bool,
        stats: FaultStats,
    ) -> None:
        """Resolve the touched pages of one PTE-leaf chunk.

        ``sub`` is either a normalized boolean mask (guaranteed non-empty by
        the caller) or ``None`` meaning every page in the chunk is touched —
        the fast path skips materializing an all-ones mask entirely.
        ``n_touched`` is the caller's already-reduced count of ``sub``
        (or the chunk length when ``sub`` is ``None``).

        One classification pass: every per-kind selector (present / CoW /
        demand) derives from a single read of the chunk's PTEs, counts are
        reduced once and reused for dispatch and accounting, and the
        not-present mask only materializes when a demand fault exists.  The
        warm case (all touched pages present, nothing to CoW) runs with two
        reductions and no intermediate mask allocations beyond ``present``.
        """
        ptes = leaf.ptes[sl]
        if sub is None:
            # count_nonzero on the masked ints skips the boolean conversion.
            n_tp = int(np.count_nonzero(ptes & _PRESENT))
            n_np = n_touched - n_tp
            # Everything present: masks degenerate to whole-slice ops, so no
            # boolean selector ever materializes (the warm re-access case
            # that dominates steady-state invocations).
            fast = n_np == 0
            present = touched_present = None
        else:
            present = (ptes & _PRESENT) != 0
            touched_present = sub & present
            n_tp = int(np.count_nonzero(touched_present))
            n_np = n_touched - n_tp
            fast = False
        if write and n_tp:
            if fast:
                cow_hits = (ptes & _COW) != 0
            else:
                if touched_present is None:
                    present = (ptes & _PRESENT) != 0
                    touched_present = present
                cow_hits = touched_present & ((ptes & _COW) != 0)
            n_cow = int(np.count_nonzero(cow_hits))
        else:
            cow_hits = None
            n_cow = 0

        if (n_np or n_cow) and leaf.shared:
            leaf = self._privatize_pte_leaf(task, leaf_index, stats)
            ptes = leaf.ptes[sl]

        # Hardware A/D updates happen regardless of faulting (and are legal
        # on shared leaves — this is the §4.3 harvesting channel).
        if n_tp:
            if fast:
                np.bitwise_or(ptes, _ACCESSED, out=ptes)
                if write:
                    hw_writable = (ptes & _WRITE) != 0
                    n_hw = int(np.count_nonzero(hw_writable))
                    if n_hw == n_touched:
                        np.bitwise_or(ptes, _DIRTY, out=ptes)
                    elif n_hw:
                        ptes[hw_writable] |= _DIRTY
            else:
                if touched_present is None:
                    present = (ptes & _PRESENT) != 0
                    touched_present = present
                ptes[touched_present] |= _ACCESSED
                if write:
                    hw_writable = touched_present & ((ptes & _WRITE) != 0)
                    if hw_writable.any():
                        ptes[hw_writable] |= _DIRTY

        if n_cow:
            self._do_cow(task, leaf, sl, cow_hits, stats, total=n_cow)

        if n_np:
            if present is None:
                present = (ptes & _PRESENT) != 0
            not_present = ~present if sub is None else sub & ~present
            self._do_not_present(task, vma, leaf, sl, vpn0, not_present, write, stats)

        # Final placement tally for the touched pages of this chunk.
        if n_cow or n_np:
            # Faults rewrote PTEs; re-derive placement from the final state.
            final = leaf.ptes[sl] if sub is None else leaf.ptes[sl][sub]
            n_cxl = int(np.count_nonzero(final & _CXL))
        elif fast:
            n_cxl = int(np.count_nonzero(ptes & _CXL))
        else:
            # Warm path: A/D updates never change placement, so the initial
            # read's classification stands (non-present touches are zero
            # PTEs, which count as local exactly like before).
            n_cxl = int(np.count_nonzero(touched_present & ((ptes & _CXL) != 0)))
        stats.touched_cxl += n_cxl
        stats.touched_local += n_touched - n_cxl

    # -- CoW ------------------------------------------------------------------------

    def _do_cow(
        self,
        task: Task,
        leaf: PteLeaf,
        sl: slice,
        cow_mask: np.ndarray,
        stats: FaultStats,
        total: Optional[int] = None,
    ) -> None:
        """CoW-resolve the ``cow_mask`` pages of one chunk.

        ``total`` optionally carries the caller's already-reduced count of
        ``cow_mask`` so the classification pass is not repeated.  The
        CXL/local split reduces once over the compacted selection instead
        of materializing full-width on-CXL / on-local masks.
        """
        ptes = leaf.ptes[sl]
        if total is None:
            total = int(np.count_nonzero(cow_mask))
        old = ptes[cow_mask]
        old_frames = (old >> PTE_FRAME_SHIFT).astype(np.int64)
        old_is_cxl = (old & _CXL) != 0
        any_old_cxl = bool(old_is_cxl.any())
        if RAS.active():
            # The CoW read is the other hot path that copies checkpoint
            # bytes (eagerly mapped pages never demand-fault): the private
            # copy of a poisoned frame must not be served.  Checked before
            # any PTE/refcount mutation so a detection leaves no half-done
            # fault; has_poison keeps the clean-pool cost at one read.
            pool = self.node.fabric.device.frames
            if pool.has_poison and any_old_cxl:
                verify_frames(pool, old_frames[old_is_cxl], context="cow-fault")
        new_frames = self.alloc_local_frames(task, total)
        new_flags = (
            PteFlags.PRESENT
            | PteFlags.WRITE
            | PteFlags.USER
            | PteFlags.ACCESSED
            | PteFlags.DIRTY
        )
        ptes[cow_mask] = make_ptes(new_frames, int(new_flags))
        # Drop the mapping references on the source pages.
        backing = task.mm.ckpt_backing
        holds = backing is None or backing.holds_frame_refs
        if any_old_cxl and holds:
            self.node.fabric.put_frames(old_frames[old_is_cxl])
        local_old = old_frames[~old_is_cxl]
        if local_old.size:
            self.node.dram.put(local_old)
        n_cxl = int(np.count_nonzero(old_is_cxl))
        n_local = total - n_cxl
        stats.add(FaultKind.COW_CXL, n_cxl, self.fault_cost(FaultKind.COW_CXL))
        stats.add(FaultKind.COW_LOCAL, n_local, self.fault_cost(FaultKind.COW_LOCAL))

    # -- non-present resolution --------------------------------------------------------

    def _do_not_present(
        self,
        task: Task,
        vma: Vma,
        leaf: PteLeaf,
        sl: slice,
        vpn0: int,
        np_mask: np.ndarray,
        write: bool,
        stats: FaultStats,
    ) -> None:
        mm = task.mm
        backing = mm.ckpt_backing
        remaining = np_mask.copy()
        if backing is not None:
            ckpt_pt: PageTable = backing.checkpoint.pagetable
            # The chunk is exactly one leaf slice, so read the checkpointed
            # leaf's PTEs directly (a view) instead of paying gather_ptes'
            # per-chunk allocation + copy; _fault_from_checkpoint only
            # reads them.
            ckpt_leaf = ckpt_pt.leaf_or_none(vpn0 >> LEAF_SHIFT)
            if ckpt_leaf is not None:
                ckpt_ptes = ckpt_leaf.ptes[sl]
                covered = remaining & ((ckpt_ptes & _PRESENT) != 0)
                if np.any(covered):
                    self._fault_from_checkpoint(
                        task, vma, leaf, sl, covered, ckpt_ptes, write, backing, stats
                    )
                    remaining &= ~covered
        if not np.any(remaining):
            return
        if vma.kind is VmaKind.ANON:
            self._fault_anon(task, leaf, sl, remaining, write, stats)
            return
        if vma.kind is VmaKind.FILE_PRIVATE:
            if not vma.file_registered:
                vma = self._register_vma_files(task, vma, stats)
            self._fault_file(task, vma, leaf, sl, vpn0, remaining, write, stats)
            return
        raise SegfaultError(f"unsupported VMA kind for faulting: {vma.kind}")

    def _fault_anon(
        self,
        task: Task,
        leaf: PteLeaf,
        sl: slice,
        mask: np.ndarray,
        write: bool,
        stats: FaultStats,
    ) -> None:
        count = int(np.count_nonzero(mask))
        frames = self.alloc_local_frames(task, count)
        flags = PteFlags.PRESENT | PteFlags.WRITE | PteFlags.USER | PteFlags.ACCESSED
        if write:
            flags |= PteFlags.DIRTY
        leaf.ptes[sl][mask] = make_ptes(frames, int(flags))
        stats.add(FaultKind.ANON_ZERO, count, self.fault_cost(FaultKind.ANON_ZERO))

    def _fault_file(
        self,
        task: Task,
        vma: Vma,
        leaf: PteLeaf,
        sl: slice,
        vpn0: int,
        mask: np.ndarray,
        write: bool,
        stats: FaultStats,
    ) -> None:
        mm = task.mm
        idx = np.nonzero(mask)[0]
        vpns = vpn0 + idx
        file_pages = vma.file_offset_pages + (vpns - vma.start_vpn)
        newly, frames = self.node.pagecache.ensure_pages(vma.path, file_pages)
        self.node.dram.get(frames)  # mapping references
        mm.owned_local_pages += newly
        flags = PteFlags.PRESENT | PteFlags.USER | PteFlags.ACCESSED
        if vma.perms & VmaPerms.WRITE:
            flags |= PteFlags.COW
        leaf.ptes[sl][mask] = make_ptes(frames, int(flags))
        minor = len(idx) - newly
        stats.add(FaultKind.FILE_MAJOR, newly, self.fault_cost(FaultKind.FILE_MAJOR))
        stats.add(FaultKind.FILE_MINOR, minor, self.fault_cost(FaultKind.FILE_MINOR))
        if write:
            # Private file write: the fresh mapping is COW; copy immediately.
            sub = np.zeros_like(mask)
            sub[idx] = True
            self._do_cow(task, leaf, sl, sub, stats)

    def _fault_from_checkpoint(
        self,
        task: Task,
        vma: Vma,
        leaf: PteLeaf,
        sl: slice,
        mask: np.ndarray,
        ckpt_ptes: np.ndarray,
        write: bool,
        backing: CheckpointBacking,
        stats: FaultStats,
    ) -> None:
        """MoA / hybrid-tiering resolution of checkpoint-covered pages."""
        if RAS.active():
            # Hot-path integrity check: a demand fault about to read (copy)
            # or map checkpoint frames must not touch poisoned ones.  The
            # has_poison guard keeps the clean-pool cost at one attribute
            # read, so checked runs stay digest-identical.
            pool = self.node.fabric.device.frames
            if pool.has_poison:
                src = (ckpt_ptes[mask] >> PTE_FRAME_SHIFT).astype(np.int64)
                verify_frames(pool, src, context="demand-fault")
        policy = backing.policy
        a_bits = (ckpt_ptes & _ACCESSED) != 0
        hot_bits = (ckpt_ptes & np.int64(int(PteFlags.HOT))) != 0
        if write:
            copy_mask = mask.copy()
        else:
            copy_mask = mask & policy.select_copy_on_read(a_bits, hot_bits)
        map_mask = mask & ~copy_mask

        if np.any(copy_mask):
            count = int(np.count_nonzero(copy_mask))
            frames = self.alloc_local_frames(task, count)
            # The private copy is hardware-writable only in a writable VMA;
            # copies of read-only mappings (library images under MoA or
            # Mitosis) must stay read-only like the mapping they realize.
            flags = PteFlags.PRESENT | PteFlags.USER | PteFlags.ACCESSED
            if vma.perms & VmaPerms.WRITE:
                flags |= PteFlags.WRITE
            if write:
                flags |= PteFlags.DIRTY
            leaf.ptes[sl][copy_mask] = make_ptes(frames, int(flags))
            kind = policy.copy_fault_kind
            stats.add(kind, count, self.fault_cost(kind))
        if np.any(map_mask):
            count = int(np.count_nonzero(map_mask))
            src_frames = (ckpt_ptes[map_mask] >> PTE_FRAME_SHIFT).astype(np.int64)
            flags = (
                PteFlags.PRESENT
                | PteFlags.USER
                | PteFlags.ACCESSED
                | PteFlags.COW
                | PteFlags.CXL
            )
            leaf.ptes[sl][map_mask] = make_ptes(src_frames, int(flags))
            if backing.holds_frame_refs:
                self.node.fabric.get_frames(src_frames)
            stats.add(FaultKind.CXL_MAP, count, self.fault_cost(FaultKind.CXL_MAP))


__all__ = [
    "Kernel",
    "FaultStats",
    "CheckpointBacking",
    "NodeFailedError",
    "SegfaultError",
]
