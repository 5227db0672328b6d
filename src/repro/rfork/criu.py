"""CRIU-CXL: the state-of-practice baseline (§2.3.1, §6.2).

Checkpoint: serialize the *entire* process image — task, registers, fds,
namespaces, VMAs, pagemaps, and the raw contents of every anonymous or
dirty page — with the protobuf-like codec into files on the shared
in-CXL-memory file system.  Clean private file pages are skipped (CRIU
relies on the identical root FS to fault them back in).

Restore: read the image files from CXL, deserialize everything, recreate
every VMA with mmap calls, and copy every dumped page into freshly
allocated local memory.  Parent and child share no state afterwards, which
is why CRIU's child consumes ~cold-start memory (Fig. 7b).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, Optional

import numpy as np

from repro.dedup import DEDUP
from repro.dedup.seal import ChunkInterner, seal_codes
from repro.os.fs.cxlfs import CxlFileSystem
from repro.os.mm.pagetable import PTES_PER_LEAF
from repro.os.mm.pte import PteFlags
from repro.os.mm.vma import VmaKind
from repro.os.node import ComputeNode
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
    PROC_CREATE_NS,
    CheckpointMetrics,
    RemoteForkMechanism,
    RestoreMetrics,
    RestoreResult,
    rebuild_os_state,
)
from repro.serial.codec import Codec
from repro.serial.records import (
    PagemapRecord,
    TaskRecord,
    VmaRecord,
    pagemap_records,
    task_to_records,
    vma_records,
)
from repro.sim.npx import count_in_range, ensure_sorted, mask_in_range
from repro.sim.units import PAGE_SIZE
from repro.telemetry import TRACE

#: Installing one restored page's PTE (beyond the data copy itself).
PTE_INSTALL_NS = 120.0
#: Per-page handling while restoring pages.img: CRIU walks pagemap entries
#: and preads/installs 4 KiB at a time, paying syscall + bookkeeping per
#: page (this, not raw bandwidth, dominates its restore — §7.1's 16-423 ms).
PAGE_RESTORE_NS = 1_500.0


class CriuCheckpoint:
    """A CRIU image set on the in-CXL-memory file system."""

    def __init__(self, comm: str, cxlfs: CxlFileSystem, image_id: str) -> None:
        self.comm = comm
        self.cxlfs = cxlfs
        self.image_id = image_id
        self.task_record: Optional[TaskRecord] = None
        self.vma_records: list[VmaRecord] = []
        self.pagemaps: list[PagemapRecord] = []
        self.dumped_pages = 0
        self.metadata_bytes = 0
        self._deleted = False
        #: Dedup (repro.dedup): sorted vpns of dumped pages and their
        #: content codes (empty when sealed with dedup off).
        self.page_code_vpns = np.empty(0, dtype=np.int64)
        self.page_codes = np.empty(0, dtype=np.int64)
        #: Chunk frames adopted from the pod's index instead of being
        #: stored in pages.img (this image holds one fabric ref per frame).
        self.chunk_frames = np.empty(0, dtype=np.int64)
        self.dedup_pages = 0
        self.zero_elided_pages = 0

    @property
    def file_paths(self) -> list:
        prefix = f"/criu/{self.image_id}"
        return [f"{prefix}/{name}" for name in ("task.img", "vmas.img", "pagemap.img", "pages.img")]

    @property
    def data_bytes(self) -> int:
        """Logical payload: every dumped page, wherever it is stored.
        Restore copies (and a full ship transfers) all of it, so dedup
        must not change this — only where the bytes live."""
        return self.dumped_pages * PAGE_SIZE

    @property
    def stored_data_bytes(self) -> int:
        """Bytes actually written to pages.img (dedup'd pages resolve to
        shared chunk frames instead)."""
        return (self.dumped_pages - self.dedup_pages) * PAGE_SIZE

    @property
    def cxl_bytes(self) -> int:
        return self.data_bytes + self.metadata_bytes

    @property
    def resident_cxl_bytes(self) -> int:
        """Device bytes this image added: pages.img + metadata.  Adopted
        chunk frames are borrowed from other checkpoints, not added."""
        return self.stored_data_bytes + self.metadata_bytes

    def delete(self) -> None:
        if self._deleted:
            return
        self._deleted = True
        drop_plan(self)
        if self.chunk_frames.size:
            fabric = self.cxlfs.fabric
            index = getattr(fabric, "_chunk_index", None)
            if index is not None:
                index.release(self.chunk_frames)
            fabric.put_frames(self.chunk_frames)
        for path in self.file_paths:
            if self.cxlfs.exists(path):
                self.cxlfs.unlink(path)


def build_restore_plan(checkpoint: CriuCheckpoint) -> RestorePlan:
    """Build the image-derived restore inputs.

    The rebuilt :class:`~repro.os.mm.vma.Vma` list is safe to share across
    restored tasks (``Vma`` is a frozen dataclass), and the pagemap-install
    decisions apply CRIU's skip rule — install a run unless it is clean
    and lands in a private file mapping (those pages were never dumped) —
    which depends only on the checkpoint's own records.  Per-restore side
    effects (``rootfs.ensure``, frame allocation, ``map_range``) stay live.
    """
    plan = RestorePlan()
    plan.frames = checkpoint_frames(checkpoint)
    plan.n_meta_records = 4 + len(checkpoint.vma_records) + len(checkpoint.pagemaps)
    vmas = [r.rebuild(file_registered=True) for r in checkpoint.vma_records]
    plan.vma_specs = vmas
    # VmaTree.find over the record set: a pagemap run is skipped iff it is
    # neither dirty nor hardware-writable (mirrors ``_file_clean_pages``)
    # and lands in a private file mapping.
    by_start = sorted(vmas, key=lambda v: v.start_vpn)
    starts = [v.start_vpn for v in by_start]
    skip_flags = int(PteFlags.DIRTY) | int(PteFlags.WRITE)
    install: list[tuple[int, int]] = []
    total = 0
    for pagemap in checkpoint.pagemaps:
        if not pagemap.flags & skip_flags:
            i = bisect_right(starts, pagemap.start_vpn) - 1
            if i >= 0:
                vma = by_start[i]
                if (
                    vma.start_vpn <= pagemap.start_vpn < vma.start_vpn + vma.npages
                    and vma.kind is VmaKind.FILE_PRIVATE
                ):
                    continue
        install.append((pagemap.start_vpn, pagemap.npages))
        total += pagemap.npages
    plan.install_specs = install
    plan.total_installed = total
    return plan


class CriuCxl(RemoteForkMechanism):
    """Checkpoint/Restore in Userspace, ported onto CXL shared memory."""

    name = "criu-cxl"
    #: CRIU restores from a file system, which ghost containers do not
    #: provide a mount of (§6.2: "CRIU-CXL is not compatible with ghost
    #: containers").
    supports_ghost_containers = False

    _image_counter = 0

    def __init__(self, cxlfs: CxlFileSystem, *, codec: Optional[Codec] = None) -> None:
        self.cxlfs = cxlfs
        self.codec = codec or Codec()

    # -- checkpoint -----------------------------------------------------------

    def checkpoint(self, task: Task) -> tuple[CriuCheckpoint, CheckpointMetrics]:
        node = task.node
        latency = node.fabric.latency
        metrics = CheckpointMetrics()
        span = TRACE.span("criu.checkpoint", clock=node.clock, comm=task.comm)
        if span.recording:
            metrics.span = span
        task.freeze()
        ckpt: Optional[CriuCheckpoint] = None
        try:
            CriuCxl._image_counter += 1
            ckpt = CriuCheckpoint(
                task.comm, self.cxlfs, f"{task.comm}-{CriuCxl._image_counter}"
            )
            ckpt.task_record = task_to_records(task)
            ckpt.vma_records = vma_records(task)
            ckpt.pagemaps = pagemap_records(task)

            # Pages to dump: anonymous pages always; file pages only if dirty.
            file_clean_vpns = self._file_clean_pages(task)
            dumped = 0
            for record in ckpt.pagemaps:
                dumped += record.npages - count_in_range(
                    file_clean_vpns, record.start_vpn, record.start_vpn + record.npages
                )
            ckpt.dumped_pages = dumped

            # Content-addressed dump (repro.dedup): resolve each dumped
            # page's content code; pages whose chunk the pod already holds
            # are *adopted* (one fabric ref on the shared frame) instead of
            # being written into pages.img.  CRIU only consumes the index —
            # its stored pages live inside image files, not one-page frames,
            # so misses are never registered as chunks.
            if DEDUP.active():
                fabric = node.fabric
                index = fabric.chunk_index
                code_map, zero_elided = seal_codes(task, index)
                interner = ChunkInterner(index, fabric)
                vpn_chunks: list[np.ndarray] = []
                code_chunks: list[np.ndarray] = []
                chunk_frames: list[int] = []
                for record in ckpt.pagemaps:
                    clean = mask_in_range(
                        file_clean_vpns, record.start_vpn, record.npages
                    )
                    vpns = record.start_vpn + np.nonzero(~clean)[0]
                    if not vpns.size:
                        continue
                    codes = np.empty(vpns.size, dtype=np.int64)
                    for i, vpn in enumerate(vpns):
                        leaf_codes = code_map.get(int(vpn) // PTES_PER_LEAF)
                        code = (
                            int(leaf_codes[int(vpn) & (PTES_PER_LEAF - 1)])
                            if leaf_codes is not None
                            else 0
                        )
                        codes[i] = code
                        frame = interner.adopt_only(code)
                        if frame is not None:
                            chunk_frames.append(frame)
                    vpn_chunks.append(vpns)
                    code_chunks.append(codes)
                if vpn_chunks:
                    ckpt.page_code_vpns = np.concatenate(vpn_chunks)
                    ckpt.page_codes = np.concatenate(code_chunks)
                ckpt.chunk_frames = np.asarray(chunk_frames, dtype=np.int64)
                ckpt.dedup_pages = len(chunk_frames)
                ckpt.zero_elided_pages = zero_elided
                index.stats.zero_elided += zero_elided
                interner.finish()

            # Serialize metadata + page data; write files to the CXL FS.
            # With dedup on, pages.img only stores the non-adopted pages
            # (serialization and file-write costs shrink with it); the
            # logical data_bytes — what restore copies — is unchanged.
            task_wire = ckpt.task_record.to_wire()
            vma_wire = [r.to_wire() for r in ckpt.vma_records]
            map_wire = [r.to_wire() for r in ckpt.pagemaps]
            blob_t, t_ns = self.codec.encode_with_cost(task_wire, nrecords=4)
            blob_v, v_ns = self.codec.encode_with_cost(vma_wire, nrecords=len(vma_wire))
            blob_m, m_ns = self.codec.encode_with_cost(map_wire, nrecords=len(map_wire))
            stored_pages = dumped - ckpt.dedup_pages
            stored_bytes = stored_pages * PAGE_SIZE
            metrics.note("serialize_metadata", t_ns + v_ns + m_ns)
            metrics.note(
                "serialize_pages",
                self.codec.costs.encode_ns(stored_bytes, stored_pages),
            )
            prefix = f"/criu/{ckpt.image_id}"
            self.cxlfs.write_file(f"{prefix}/task.img", len(blob_t))
            self.cxlfs.write_file(f"{prefix}/vmas.img", len(blob_v))
            self.cxlfs.write_file(f"{prefix}/pagemap.img", len(blob_m))
            self.cxlfs.write_file(f"{prefix}/pages.img", stored_bytes)
            ckpt.metadata_bytes = len(blob_t) + len(blob_v) + len(blob_m)
            metrics.note(
                "write_files",
                latency.copy_ns(
                    ckpt.metadata_bytes + stored_bytes, src_cxl=False, dst_cxl=True
                ),
            )
            metrics.serialized_bytes = ckpt.metadata_bytes + stored_bytes
            metrics.cxl_bytes = ckpt.cxl_bytes
            # Part of the operation: crash alarms in the window fire here.
            node.clock.advance(metrics.latency_ns)
            # Seal: checksum every image-file frame.  Mid-checkpoint poison
            # (an alarm in the advance above) fails the seal and the
            # cleanup below unlinks the corrupt image files.
            if RAS.active():
                seal_checkpoint(ckpt, context="criu.seal")
        except BaseException:
            span.finish()  # failed checkpoints must not leave the span open
            if ckpt is not None:
                ckpt.delete()  # unlink whatever image files were written
            raise
        finally:
            task.thaw()
        span.set(pages=ckpt.dumped_pages, cxl_bytes=ckpt.cxl_bytes)
        span.finish()
        return ckpt, metrics

    @staticmethod
    def _file_clean_pages(task: Task) -> np.ndarray:
        """Sorted vpns of present, clean, file-backed pages (not dumped by
        CRIU).  Sorted ascending so the checkpoint scans can use the
        searchsorted helpers instead of ``np.isin``.

        Clean means *never privately modified*, not merely not-dirty: a
        CoW-broken private copy stays hardware-writable after ``season()``
        (or A/D harvesting) clears its DIRTY bit, and skipping it would
        restore the pristine file bytes instead of the parent's — a silent
        semantic divergence the differential oracle catches."""
        clean_mask = np.int64(int(PteFlags.DIRTY) | int(PteFlags.WRITE))
        chunks = []
        for vma in task.mm.vmas:
            if vma.kind is not VmaKind.FILE_PRIVATE:
                continue
            ptes = task.mm.pagetable.gather_ptes(vma.start_vpn, vma.npages)
            present = (ptes & np.int64(int(PteFlags.PRESENT))) != 0
            clean = (ptes & clean_mask) == 0
            sel = np.nonzero(present & clean)[0]
            if sel.size:
                chunks.append(vma.start_vpn + sel)
        if not chunks:
            return np.empty(0, dtype=np.int64)
        # VMA iteration order is ascending, so the chunks concatenate sorted;
        # ensure_sorted is a cheap monotonicity check in that common case.
        return ensure_sorted(np.concatenate(chunks))

    # -- restore --------------------------------------------------------------

    def restore(
        self,
        checkpoint: CriuCheckpoint,
        node: ComputeNode,
        *,
        container: Optional[Any] = None,
        policy: Optional[Any] = None,
    ) -> RestoreResult:
        if policy is not None:
            raise ValueError("CRIU-CXL has no tiering policies; state is fully copied")
        plan = plan_for(checkpoint, node.fabric, build_restore_plan)
        if RAS.active():
            # Fail before spawning anything: a corrupt image never serves.
            verify_planned(node.fabric.device.frames, plan, context="criu.restore")
        kernel = node.kernel
        metrics = RestoreMetrics()
        span = TRACE.span(
            "criu.restore", clock=node.clock, comm=checkpoint.comm, node=node.name
        )
        if span.recording:
            metrics.span = span

        metrics.note("process_create", PROC_CREATE_NS)
        task = kernel.spawn_task(checkpoint.comm, container=container)
        try:
            result = self._restore_into(task, checkpoint, node, metrics, plan)
            span.finish()
            return result
        except BaseException:
            span.finish()
            # Failed restores must not leak frames; a mid-restore node
            # crash already tore the task down via node.fail().
            if task.state is not TaskState.DEAD:
                kernel.exit_task(task)
            raise

    def _restore_into(self, task, checkpoint, node, metrics, plan) -> RestoreResult:
        kernel = node.kernel
        latency = node.fabric.latency

        # Read and deserialize every image file from the CXL FS.
        meta_bytes = checkpoint.metadata_bytes
        data_bytes = checkpoint.data_bytes
        metrics.note(
            "read_files",
            latency.copy_ns(meta_bytes + data_bytes, src_cxl=True, dst_cxl=False),
        )
        metrics.note(
            "deserialize_metadata",
            self.codec.costs.decode_ns(meta_bytes, plan.n_meta_records),
        )
        metrics.note(
            "deserialize_pages", PAGE_RESTORE_NS * checkpoint.dumped_pages
        )

        # Redo regs, fds and namespaces; recreate every VMA with mmap calls.
        rebuild_os_state(task, node, checkpoint.task_record, plan.vma_specs, metrics)

        # Copy every dumped page into fresh local memory.
        flags = (
            PteFlags.PRESENT
            | PteFlags.WRITE
            | PteFlags.USER
            | PteFlags.ACCESSED
            | PteFlags.DIRTY
        )
        for start_vpn, npages in plan.install_specs:
            frames = kernel.alloc_local_frames(task, npages)
            task.mm.pagetable.map_range(start_vpn, frames, int(flags))
        metrics.copied_pages = plan.total_installed
        metrics.note("install_pages", PTE_INSTALL_NS * plan.total_installed)

        node.clock.advance(metrics.latency_ns)
        return RestoreResult(task=task, metrics=metrics)


__all__ = ["CriuCxl", "CriuCheckpoint", "build_restore_plan"]
