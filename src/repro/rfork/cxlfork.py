"""CXLfork: near zero-serialization, zero-copy remote fork over CXL (§3-§4).

Checkpoint: copy data pages and private OS structures (PTE leaves, VMA
leaves, registers) *as-is* into CXL memory with non-temporal stores, rewrite
the checkpointed PTEs to map the CXL replicas (preserving A/D bits), lightly
serialize only the global state (fd paths, mounts, PID namespace), and
**rebase** every internal pointer to a CXL offset so any OS instance can
dereference the graph.

Restore: create a process in the target container, redo the global state
from the small serialized blob, attach the checkpointed VMA leaves and
(under migrate-on-write) the checkpointed PTE leaves, initialize only the
upper page-table levels, prefetch checkpoint-dirty pages off the critical
path, and resume.  Data stays on the CXL tier, shared by every clone in the
pod, until a store CoWs it local.
"""

from __future__ import annotations

from dataclasses import replace as dc_replace
from typing import Any, Optional

import numpy as np

from repro.check import mutation as _mutation
from repro.dedup import DEDUP
from repro.dedup.seal import ChunkInterner, seal_codes
from repro.os.kernel import CheckpointBacking
from repro.os.mm.pagetable import PTES_PER_LEAF, PageTable, PteLeaf
from repro.os.mm.pte import PTE_FRAME_SHIFT, PteFlags
from repro.os.mm.vma import VmaLeaf
from repro.os.node import ComputeNode
from repro.os.proc.namespaces import NamespaceSet
from repro.os.proc.task import Task, TaskState
from repro.ras import RAS, seal_checkpoint
from repro.ras.checksum import checkpoint_frames
from repro.rfork.restoreplan import (
    RestorePlan,
    drop_plan,
    plan_for,
    verify_planned,
)
from repro.rfork.base import (
    FD_REOPEN_NS,
    NS_RESTORE_NS,
    PROC_CREATE_NS,
    CheckpointMetrics,
    RemoteForkMechanism,
    RestoreMetrics,
    RestoreResult,
)
from repro.serial.blob import CxlHeap
from repro.serial.codec import Codec
from repro.serial.rebase import RebaseError, Rebaser
from repro.serial.records import FdRecord, NamespaceRecord, RegsRecord
from repro.sim.npx import mask_in_range
from repro.sim.units import PAGE_SIZE
from repro.telemetry import TRACE
from repro.tiering.mow import MigrateOnWrite
from repro.tiering.prefetch import DirtyPagePrefetcher

#: Pointer-fixup cost per checkpointed structure during the rebase pass.
REBASE_FIXUP_NS = 150.0
#: Attaching one checkpointed PTE leaf (pin it, set the PMD entry, track
#: the leaf-CoW bit).
PTE_LEAF_ATTACH_NS = 2_000.0
#: Attaching one checkpointed VMA leaf.
VMA_LEAF_ATTACH_NS = 2_000.0
#: Allocating + initializing one upper-level page table at restore.
UPPER_TABLE_INIT_NS = 1_000.0
#: Estimated in-CXL size of one VMA struct (excluding its path string).
VMA_STRUCT_BYTES = 136
#: Per-present-page cost of hashing + chunk-index lookup when dedup is on
#: (a sha256 over 4 KiB plus one hash-table probe, both off the data path).
CHUNK_LOOKUP_NS = 150.0

_AD_HOT_MASK = np.int64(
    int(PteFlags.ACCESSED) | int(PteFlags.DIRTY) | int(PteFlags.HOT)
)
_CKPT_BASE_FLAGS = np.int64(
    int(PteFlags.PRESENT)
    | int(PteFlags.USER)
    | int(PteFlags.CXL)
    | int(PteFlags.COW)
    | int(PteFlags.PIN)
)


class CxlForkCheckpoint:
    """A process checkpoint resident in shared CXL memory."""

    def __init__(self, comm: str, fabric, heap: CxlHeap) -> None:
        self.comm = comm
        self.fabric = fabric
        self.heap = heap
        self.pagetable = PageTable()  # the checkpointed (CXL-resident) tree
        self.vma_leaves: list[VmaLeaf] = []
        self.data_frames = np.empty(0, dtype=np.int64)
        self.leaf_offsets: dict[int, int] = {}
        self.vma_leaf_offsets: list[int] = []
        self.regs_offset = 0
        self.global_offset = 0
        self.image_offset = 0
        self.present_pages = 0
        self.rebased = False
        self.source_node = ""
        self._deleted = False
        #: Content codes per PTE leaf (leaf index -> int64[PTES_PER_LEAF],
        #: NO_CODE where absent).  None when the image was sealed with
        #: dedup off; set by the seal and by replication materialize.
        self.chunk_codes: Optional[dict[int, np.ndarray]] = None
        #: Pages resolved to a chunk some *other* checkpoint already held
        #: (borrowed frames — shared, so not this image's resident bytes).
        self.shared_chunk_pages = 0
        #: Anonymous pages elided as the zero chunk (never stored at all).
        self.zero_elided_pages = 0

    # -- size accounting ---------------------------------------------------------

    @property
    def data_bytes(self) -> int:
        return self.present_pages * PAGE_SIZE

    @property
    def metadata_bytes(self) -> int:
        return self.heap.used_bytes

    @property
    def cxl_bytes(self) -> int:
        return self.data_bytes + self.metadata_bytes

    @property
    def resident_cxl_bytes(self) -> int:
        """Device bytes this image *added*: logical size minus the pages it
        shares from chunks other checkpoints already held."""
        return self.cxl_bytes - self.shared_chunk_pages * PAGE_SIZE

    def gather_chunk_codes(self, start_vpn: int, npages: int):
        """Content codes for ``npages`` vpns (None if sealed without dedup)."""
        if self.chunk_codes is None:
            return None
        out = np.zeros(npages, dtype=np.int64)
        vpn = start_vpn
        end = start_vpn + npages
        while vpn < end:
            leaf_index = vpn // PTES_PER_LEAF
            lo = vpn & (PTES_PER_LEAF - 1)
            hi = min(PTES_PER_LEAF, lo + (end - vpn))
            codes = self.chunk_codes.get(leaf_index)
            if codes is not None:
                out[vpn - start_vpn : vpn - start_vpn + (hi - lo)] = codes[lo:hi]
            vpn += hi - lo
        return out

    @property
    def max_vpn(self) -> int:
        if not self.vma_leaves:
            return 0
        return max(leaf.end_vpn for leaf in self.vma_leaves)

    def delete(self) -> None:
        """Release all CXL storage (object-store reclaim)."""
        if self._deleted:
            return
        self._deleted = True
        drop_plan(self)
        if self.data_frames.size:
            if self.chunk_codes is not None:
                # Drop this image's sharer from every indexed chunk before
                # the frame references go: entries with surviving sharers
                # keep their frames alive through the other owners' refs.
                index = getattr(self.fabric, "_chunk_index", None)
                if index is not None:
                    index.release(self.data_frames)
            self.fabric.put_frames(self.data_frames)
        self.heap.release()

    def verify_detached(self) -> None:
        """Assert no checkpointed PTE still references node-local memory."""
        for _, leaf in self.pagetable.leaves():
            present = (leaf.ptes & np.int64(int(PteFlags.PRESENT))) != 0
            if not np.any(present):
                continue
            on_cxl = (leaf.ptes[present] & np.int64(int(PteFlags.CXL))) != 0
            if not np.all(on_cxl):
                raise RebaseError(
                    "checkpointed PTE maps node-local memory — rebase failed"
                )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"CxlForkCheckpoint(comm={self.comm!r}, "
            f"pages={self.present_pages}, rebased={self.rebased})"
        )


def build_restore_plan(checkpoint: CxlForkCheckpoint) -> RestorePlan:
    """Memoize the restore inputs that are pure functions of the image.

    The heap derefs, the verify frame set, the upper-table count (a pure
    function of the leaf-index set, since a restored task starts with an
    empty tree), and the present total the naive ablation reinstalls.
    Codec- and prefetcher-dependent fields fill lazily on first use (see
    :mod:`repro.rfork.restoreplan`).
    """
    plan = RestorePlan()
    plan.frames = checkpoint_frames(checkpoint)
    heap = checkpoint.heap
    attach = [
        (leaf_index, heap.deref(offset))
        for leaf_index, offset in checkpoint.leaf_offsets.items()
    ]
    plan.pt_attach = attach
    plan.leaf_indices = np.asarray([i for i, _ in attach], dtype=np.int64)
    plan.leaf_cxl_resident = np.asarray(
        [leaf.cxl_resident for _, leaf in attach], dtype=bool
    )
    plan.backing_frames = checkpoint.data_frames
    plan.upper_tables = PageTable.upper_tables_for(checkpoint.leaf_offsets)
    plan.naive_installed = sum(leaf.present_count() for _, leaf in attach)
    plan.vma_leaves = [heap.deref(offset) for offset in checkpoint.vma_leaf_offsets]
    plan.max_vpn = checkpoint.max_vpn
    return plan


class CxlFork(RemoteForkMechanism):
    """The paper's remote fork interface."""

    name = "cxlfork"
    supports_ghost_containers = True

    def __init__(
        self,
        *,
        codec: Optional[Codec] = None,
        prefetcher: Optional[DirtyPagePrefetcher] = None,
        checkpoint_file_pages: bool = True,
        naive_restore: bool = False,
    ) -> None:
        self.codec = codec or Codec()
        self.prefetcher = prefetcher or DirtyPagePrefetcher()
        #: Ablation (§4.1): when False, clean private file pages are left
        #: out of the checkpoint (CRIU-style) and the restored child
        #: faults them from the file system on the remote node.
        self.checkpoint_file_pages = checkpoint_file_pages
        #: Ablation (§4.2.1): when True, restore *copies* the checkpointed
        #: page-table leaves to local memory and re-installs every PTE
        #: instead of attaching the leaves — the "naive implementation"
        #: the paper measures at several milliseconds.
        self.naive_restore = naive_restore

    # -- checkpoint --------------------------------------------------------------

    def checkpoint(self, task: Task) -> tuple[CxlForkCheckpoint, CheckpointMetrics]:
        node = task.node
        fabric = node.fabric
        latency = fabric.latency
        metrics = CheckpointMetrics()
        span = TRACE.span("cxlfork.checkpoint", clock=node.clock, comm=task.comm)
        if span.recording:
            metrics.span = span
        task.freeze()
        ckpt: Optional[CxlForkCheckpoint] = None
        frame_chunks: list[np.ndarray] = []
        interner: Optional[ChunkInterner] = None
        try:
            ckpt = CxlForkCheckpoint(task.comm, fabric, CxlHeap(fabric, f"ckpt:{task.comm}"))
            ckpt.source_node = node.name
            rebaser = Rebaser(ckpt.heap)

            # Ablation: optionally leave clean private file pages out.
            skip_vpns = None
            if not self.checkpoint_file_pages:
                from repro.rfork.criu import CriuCxl

                skip_vpns = CriuCxl._file_clean_pages(task)

            # Content-addressed seal (repro.dedup): resolve every present
            # page's content code up front, then intern pages through the
            # pod's chunk index instead of unconditionally copying.
            code_map = None
            if DEDUP.active():
                index = fabric.chunk_index
                code_map, zero_elided = seal_codes(task, index)
                interner = ChunkInterner(index, fabric)
                ckpt.chunk_codes = {}
                ckpt.zero_elided_pages = zero_elided
                index.stats.zero_elided += zero_elided

            # 1. Copy data pages to CXL and build the rebased page table.
            base_flags = _CKPT_BASE_FLAGS
            if _mutation.DROP_CKPT_COW.active():
                # Seeded bug for the checker's own smoke test: without COW,
                # a child's write to a checkpoint-mapped page silently
                # no-ops instead of CoW-ing local (see repro.check.mutation).
                base_flags = base_flags & ~np.int64(int(PteFlags.COW))
            total_present = 0
            for leaf_index, leaf in task.mm.pagetable.leaves():
                present = (leaf.ptes & np.int64(int(PteFlags.PRESENT))) != 0
                if skip_vpns is not None and skip_vpns.size:
                    base = leaf_index * PTES_PER_LEAF
                    present &= ~mask_in_range(skip_vpns, base, PTES_PER_LEAF)
                count = int(np.count_nonzero(present))
                new_ptes = np.zeros(PTES_PER_LEAF, dtype=np.int64)
                if count:
                    if interner is None:
                        cxl_frames = fabric.alloc_frames(count)
                    else:
                        leaf_codes = code_map[leaf_index]
                        cxl_frames = interner.intern_leaf(leaf_codes[present])
                        # Record the *intended* codes PTE-aligned: restore
                        # and the oracle cross-check frames against them.
                        recorded = np.zeros(PTES_PER_LEAF, dtype=np.int64)
                        recorded[present] = leaf_codes[present]
                        ckpt.chunk_codes[leaf_index] = recorded
                    frame_chunks.append(cxl_frames)
                    preserved = leaf.ptes[present] & _AD_HOT_MASK
                    new_ptes[present] = (
                        (cxl_frames << np.int64(PTE_FRAME_SHIFT))
                        | base_flags
                        | preserved
                    )
                    total_present += count
                ckpt_leaf = PteLeaf(new_ptes, cxl_resident=True)
                ckpt.pagetable.install_leaf(leaf_index, ckpt_leaf)
                offset = rebaser.intern(ckpt_leaf, PAGE_SIZE)
                ckpt_leaf.backing_frame = int(offset)
                ckpt.leaf_offsets[leaf_index] = int(offset)
            ckpt.present_pages = total_present
            if frame_chunks:
                ckpt.data_frames = np.concatenate(frame_chunks)
            copied_pages = total_present
            if interner is not None:
                interner.finish()
                ckpt.shared_chunk_pages = interner.shared_pages
                # Shared pages are *not* copied — resolving to an existing
                # chunk is the entire density win — but every present page
                # pays the hash + index probe.
                copied_pages -= interner.shared_pages
                metrics.note("dedup_index", CHUNK_LOOKUP_NS * total_present)
            metrics.note(
                "data_copy",
                latency.copy_ns(copied_pages * PAGE_SIZE, src_cxl=False, dst_cxl=True),
            )
            metrics.note(
                "pagetable_copy",
                latency.copy_ns(
                    ckpt.pagetable.leaf_count * PAGE_SIZE, src_cxl=False, dst_cxl=True
                ),
            )

            # 2. Checkpoint the VMA tree leaves (paths serialized in place).
            vma_bytes = 0
            for leaf in task.mm.vmas.leaves():
                vmas = [
                    dc_replace(v, file_registered=False) if v.is_file_backed() else v
                    for v in leaf.vmas
                ]
                ckpt_leaf = VmaLeaf(vmas, cxl_resident=True)
                ckpt.vma_leaves.append(ckpt_leaf)
                size = sum(
                    VMA_STRUCT_BYTES + (len(v.path) if v.path else 0) for v in vmas
                )
                vma_bytes += size
                offset = rebaser.intern(ckpt_leaf, max(size, 1))
                ckpt_leaf.backing_frame = int(offset)
                ckpt.vma_leaf_offsets.append(int(offset))
            metrics.note(
                "vma_copy", latency.copy_ns(vma_bytes, src_cxl=False, dst_cxl=True)
            )

            # 3. Serialize global state (the only real serialization).
            fd_records = [FdRecord.capture(f).to_wire() for f in task.fdtable]
            ns_record = NamespaceRecord.capture(task).to_wire()
            blob, encode_ns = self.codec.encode_with_cost(
                {"fds": fd_records, "ns": ns_record, "comm": task.comm},
                nrecords=len(fd_records) + 1,
            )
            ckpt.global_offset = ckpt.heap.store(blob, len(blob))
            metrics.note("global_serialize", encode_ns)
            metrics.note(
                "global_copy", latency.copy_ns(len(blob), src_cxl=False, dst_cxl=True)
            )
            metrics.serialized_bytes = len(blob)

            # 4. Hardware context (raw copy).
            regs = RegsRecord.capture(task.regs)
            ckpt.regs_offset = ckpt.heap.store(regs, task.regs.serialized_size())
            metrics.note(
                "regs_copy",
                latency.copy_ns(task.regs.serialized_size(), src_cxl=False, dst_cxl=True),
            )

            # 5. Rebase: store the root image and verify closure.
            image = {
                "leaves": dict(ckpt.leaf_offsets),
                "vma_leaves": list(ckpt.vma_leaf_offsets),
                "regs": ckpt.regs_offset,
                "global": ckpt.global_offset,
            }
            ckpt.image_offset = ckpt.heap.store(image, 256)
            rebaser.verify_closed(
                roots=list(ckpt.pagetable._leaves.values()) + ckpt.vma_leaves,
                child_refs=lambda obj: [],
            )
            n_structs = ckpt.pagetable.leaf_count + len(ckpt.vma_leaves)
            metrics.note("rebase", n_structs * REBASE_FIXUP_NS)
            ckpt.rebased = True
            ckpt.verify_detached()

            metrics.cxl_bytes = ckpt.cxl_bytes
            # Advancing the clock is part of the operation: a crash alarm
            # armed inside the checkpoint window fires here, aborting us.
            node.clock.advance(metrics.latency_ns)
            # Seal: checksum every image frame.  Poison that landed during
            # the write (an alarm firing in the advance above) fails the
            # seal and the cleanup below tears the corrupt image down.
            if RAS.active():
                seal_checkpoint(ckpt, context="cxlfork.seal")
            if _mutation.FLIP_FRAME_BYTE.active() and ckpt.data_frames.size:
                # Seeded bug for the checker's smoke test: corrupt one
                # checkpointed frame *after* the seal — the restore-time
                # checksum verification must catch it (repro.check.mutation).
                fabric.device.frames.poison(ckpt.data_frames[:1])
        except BaseException:
            span.finish()  # failed checkpoints must not leave the span open
            # Crash consistency: an aborted checkpoint must leak nothing.
            # The frame chunk list (not ckpt.data_frames, which is only set
            # once all chunks are collected) covers partial allocations.
            # With dedup, the interner's index effects (fresh registrations,
            # adopted sharers) unwind first; the put below then drops the
            # one reference each interned frame carries (alloc or adopt).
            if interner is not None:
                interner.abort()
            if frame_chunks:
                fabric.put_frames(np.concatenate(frame_chunks))
            if ckpt is not None:
                ckpt.data_frames = np.empty(0, dtype=np.int64)
                ckpt._deleted = True
                ckpt.heap.release()
            raise
        finally:
            task.thaw()
        span.set(pages=ckpt.present_pages, cxl_bytes=ckpt.cxl_bytes)
        span.finish()
        return ckpt, metrics

    # -- restore ------------------------------------------------------------------

    def restore(
        self,
        checkpoint: CxlForkCheckpoint,
        node: ComputeNode,
        *,
        container: Optional[Any] = None,
        policy: Optional[Any] = None,
    ) -> RestoreResult:
        if not checkpoint.rebased:
            raise RebaseError("cannot restore from a non-rebased checkpoint")
        plan = plan_for(checkpoint, node.fabric, build_restore_plan)
        if RAS.active():
            # Verify before spawning anything: a poisoned image must never
            # begin serving, and failing here leaves nothing to unwind.
            verify_planned(
                node.fabric.device.frames, plan, context="cxlfork.restore"
            )
        if policy is None:
            policy = MigrateOnWrite()
        kernel = node.kernel
        metrics = RestoreMetrics()
        span = TRACE.span(
            "cxlfork.restore", clock=node.clock,
            comm=checkpoint.comm, node=node.name, policy=policy.name,
        )
        if span.recording:
            metrics.span = span

        metrics.note("process_create", PROC_CREATE_NS)
        task = kernel.spawn_task(checkpoint.comm, container=container)
        try:
            result = self._restore_into(
                task, checkpoint, node, policy, metrics, plan
            )
            span.finish()
            return result
        except BaseException:
            # Unwind a partially built clone (e.g. OOM during prefetch) so
            # failed restores never leak frames.  If the node crashed
            # mid-restore, node.fail() already tore the task down.
            span.finish()
            if task.state is not TaskState.DEAD:
                kernel.exit_task(task)
            raise

    def _restore_into(
        self, task, checkpoint, node, policy, metrics, plan
    ) -> RestoreResult:
        kernel = node.kernel
        latency = node.fabric.latency

        # Global state: deserialize the small blob, redo fds and namespaces.
        # The decoded state and its (deterministic) decode cost memoize on
        # the plan, keyed by codec identity — a differently-configured
        # codec never serves another codec's decode.
        if plan._codec_ref is not self.codec:
            blob = checkpoint.heap.deref(checkpoint.global_offset)
            state, decode_ns = self.codec.decode_with_cost(blob, nrecords=8)
            plan.global_state = state
            plan.global_decode_ns = decode_ns
            plan.ns_record = NamespaceRecord.from_wire(state["ns"])
            plan._codec_ref = self.codec
        state = plan.global_state
        ns_record = plan.ns_record
        metrics.note("global_deserialize", plan.global_decode_ns)
        for wire in state["fds"]:
            record = FdRecord.from_wire(wire)
            entry = record.reopen()
            inode = node.rootfs.ensure(entry.path)
            task.fdtable.install(
                dc_replace(entry, inode=inode.ino)
            )
        metrics.note("fd_reopen", FD_REOPEN_NS * len(state["fds"]))
        task.namespaces = NamespaceSet.restore_into(
            {"pid": ns_record.pid_ns, "mnt": ns_record.mnt_ns}, task.namespaces
        )
        metrics.note("ns_restore", NS_RESTORE_NS)

        # Hardware context.
        regs: RegsRecord = checkpoint.heap.deref(checkpoint.regs_offset)
        task.regs = regs.restore_into()
        metrics.note(
            "regs_restore",
            latency.copy_ns(task.regs.serialized_size(), src_cxl=True, dst_cxl=False),
        )

        # Attach the checkpointed VMA tree leaves.
        for leaf in plan.vma_leaves:  # type: VmaLeaf
            task.mm.vmas.attach_leaf(leaf)
        if checkpoint.vma_leaves:
            task.mm.note_range_used(plan.max_vpn, 0)
        metrics.note(
            "vma_attach", VMA_LEAF_ATTACH_NS * len(checkpoint.vma_leaf_offsets)
        )

        # Page tables: attach leaves (MoW) or leave empty (MoA/hybrid).
        task.mm.ckpt_backing = CheckpointBacking(
            checkpoint=checkpoint, policy=policy, holds_frame_refs=True
        )
        pt_attach = plan.pt_attach
        if self.naive_restore and policy.attach_leaves:
            # Ablation: reconstruct the page tables locally instead of
            # attaching the checkpointed leaves (§4.2.1's strawman).
            # The copies themselves stay live (A/D bits on the source
            # leaves mutate as children run); only the stable present
            # total memoizes.
            for leaf_index, leaf in pt_attach:  # type: (int, PteLeaf)
                task.mm.pagetable.install_leaf(leaf_index, PteLeaf(leaf.ptes.copy()))
                metrics.note(
                    "pt_copy", latency.page_copy_ns(src_cxl=True, dst_cxl=False)
                )
            metrics.note("pt_reinstall", 120.0 * plan.naive_installed)
            metrics.note("pt_upper_init", UPPER_TABLE_INIT_NS * plan.upper_tables)
            if checkpoint.data_frames.size:
                node.fabric.get_frames(checkpoint.data_frames)
        elif policy.attach_leaves:
            for leaf_index, leaf in pt_attach:
                task.mm.pagetable.attach_leaf(leaf_index, leaf)
            metrics.note(
                "pt_attach", PTE_LEAF_ATTACH_NS * len(checkpoint.leaf_offsets)
            )
            metrics.note("pt_upper_init", UPPER_TABLE_INIT_NS * plan.upper_tables)
            if checkpoint.data_frames.size:
                node.fabric.get_frames(checkpoint.data_frames)
        else:
            # Only the root + upper levels exist; leaves fill in on faults.
            metrics.note("pt_upper_init", UPPER_TABLE_INIT_NS * 4)

        # Ablation (§4.3): synchronously prefetch the A-marked pages during
        # restore instead of fetching them on access.  The paper finds this
        # "generally delivers lower performance" — it trades tail latency
        # for fewer CXL faults.
        if getattr(policy, "sync_prefetch_hot", False):
            copied = self._sync_prefetch_hot(node, task, checkpoint)
            metrics.note(
                "sync_hot_prefetch",
                latency.copy_ns(copied * PAGE_SIZE, src_cxl=True, dst_cxl=False),
            )

        # Opportunistic dirty-page prefetch (off the critical path).  The
        # per-leaf dirty selections are stable post-seal (checkpoint PTEs
        # never carry WRITE), so they memoize on the plan, keyed by the
        # prefetcher's effectiveness; the per-child installs stay live.
        if policy.prefetch_dirty:
            if plan.prefetch_effectiveness != self.prefetcher.effectiveness:
                plan.prefetch_specs = self.prefetcher.dirty_specs(
                    checkpoint.pagetable
                )
                plan.prefetch_effectiveness = self.prefetcher.effectiveness
            result = self.prefetcher.prefetch(kernel, task, plan.prefetch_specs)
            metrics.background_ns += result.background_ns
            metrics.prefetched_pages = result.pages
            if TRACE.active() and result.pages:
                TRACE.add_span(
                    "cxlfork.prefetch_dirty", node.clock.now, result.background_ns,
                    clock=node.clock, top_level=True, pages=result.pages,
                )

        node.clock.advance(metrics.latency_ns)
        return RestoreResult(task=task, metrics=metrics)

    @staticmethod
    def _sync_prefetch_hot(node, task, checkpoint) -> int:
        """Install local copies of all A-marked checkpoint pages now."""
        kernel = node.kernel
        hot_flags = np.int64(int(PteFlags.PRESENT) | int(PteFlags.ACCESSED))
        copied = 0
        for leaf_index, ckpt_leaf in checkpoint.pagetable.leaves():
            hot = (ckpt_leaf.ptes & hot_flags) == hot_flags
            count = int(np.count_nonzero(hot))
            if count == 0:
                continue
            child_leaf = task.mm.pagetable.ensure_leaf(leaf_index)
            unmapped = hot & ((child_leaf.ptes & np.int64(int(PteFlags.PRESENT))) == 0)
            count = int(np.count_nonzero(unmapped))
            if count == 0:
                continue
            frames = kernel.alloc_local_frames(task, count)
            from repro.os.mm.pte import make_ptes
            from repro.os.mm.vma import VmaPerms

            # The prefetched copy is hardware-writable only where the VMA
            # is: A-marked pages include read-only library images, and a
            # writable PTE in a read-only mapping breaks protection.
            base = int(PteFlags.PRESENT | PteFlags.USER | PteFlags.ACCESSED)
            vpn0 = leaf_index * PTES_PER_LEAF
            ptes = make_ptes(frames, base)
            for pos, i in enumerate(np.nonzero(unmapped)[0]):
                vma = task.mm.vmas.find(vpn0 + int(i))
                if vma is not None and vma.perms & VmaPerms.WRITE:
                    ptes[pos] |= np.int64(int(PteFlags.WRITE))
            child_leaf.ptes[unmapped] = ptes
            copied += count
        return copied


__all__ = ["CxlFork", "CxlForkCheckpoint", "build_restore_plan"]
