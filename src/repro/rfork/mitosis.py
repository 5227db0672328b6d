"""Mitosis-CXL: the state-of-the-art baseline (§2.3.2, §6.2).

Checkpoint: make an immutable *shadow copy* of the parent's memory in the
parent node's local DRAM and serialize the OS state (task, VMAs, pagemaps)
into a buffer.  The checkpoint stays coupled to the parent node — the
parent cannot exit while descendants live, and every restore pulls from it.

Restore: ship the serialized OS state over CXL, deserialize it, and eagerly
reconstruct the process's VMA tree and page-table skeleton on the target
node.  No data is copied up front; as the child runs, every first touch
takes a "remote" fault that copies the page from the parent's shadow over
the CXL fabric into local memory (the §6.2 emulation of Mitosis' one-sided
RDMA reads).
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.os.kernel import CheckpointBacking
from repro.os.mm.faults import FaultKind
from repro.os.mm.pagetable import PTES_PER_LEAF, PageTable, PteLeaf
from repro.os.mm.pte import PTE_FRAME_SHIFT, PteFlags
from repro.os.node import ComputeNode
from repro.os.proc.task import Task, TaskState
from repro.rfork.restoreplan import RestorePlan, drop_plan, plan_for
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
    TaskRecord,
    VmaRecord,
    pagemap_records,
    task_to_records,
    vma_records,
)
from repro.sim.units import PAGE_SIZE
from repro.tiering.policy import TieringPolicy

#: Rebuilding the page-table skeleton for one present page on restore
#: (Mitosis installs "remote-marked" entries eagerly; §7.1 measures this
#: OS-state transfer+rebuild at up to 15 ms for Bert's ~160k pages).
PT_REBUILD_PER_PAGE_NS = 80.0


class MitosisPolicy(TieringPolicy):
    """Every touched page is copied from the parent's shadow over CXL."""

    name = "mitosis"
    attach_leaves = False
    copy_fault_kind = FaultKind.MITOSIS_REMOTE
    prefetch_dirty = False

    def select_copy_on_read(self, a_bits: np.ndarray, hot_bits: np.ndarray) -> np.ndarray:
        return np.ones_like(a_bits, dtype=bool)


class MitosisCheckpoint:
    """A shadow process image held in the *parent node's* local memory."""

    def __init__(self, comm: str, parent_node: ComputeNode) -> None:
        self.comm = comm
        self.parent_node = parent_node
        self.pagetable = PageTable()  # shadow mappings (parent-local frames)
        self.shadow_frames = np.empty(0, dtype=np.int64)
        self.task_record: Optional[TaskRecord] = None
        self.vma_records: list[VmaRecord] = []
        self.os_state_bytes = 0
        self.present_pages = 0
        self._deleted = False

    @property
    def local_shadow_bytes(self) -> int:
        return self.present_pages * PAGE_SIZE

    @property
    def cxl_bytes(self) -> int:
        return 0  # nothing persists on the CXL device

    def delete(self) -> None:
        if self._deleted:
            return
        self._deleted = True
        drop_plan(self)
        if self.shadow_frames.size:
            self.parent_node.dram.put(self.shadow_frames)


def build_restore_plan(checkpoint: MitosisCheckpoint) -> RestorePlan:
    """Memoize the OS-state restore inputs (Mitosis ships metadata only).

    The shadow pages themselves are never touched at restore — children
    pull them on fault — so the plan holds just the deserialization record
    count and the rebuilt immutable Vma list.  Mitosis images are not
    CXL-resident and carry no RAS seal, so ``plan.frames`` stays None.
    """
    plan = RestorePlan()
    plan.n_meta_records = (
        2 + len(checkpoint.vma_records) + checkpoint.present_pages // 64
    )
    plan.vma_specs = [
        r.rebuild(file_registered=True) for r in checkpoint.vma_records
    ]
    return plan


class MitosisCxl(RemoteForkMechanism):
    """Mitosis remote fork with RDMA verbs replaced by CXL copies."""

    name = "mitosis-cxl"
    supports_ghost_containers = True

    def __init__(self, *, codec: Optional[Codec] = None) -> None:
        self.codec = codec or Codec()

    # -- checkpoint --------------------------------------------------------------

    def checkpoint(self, task: Task) -> tuple[MitosisCheckpoint, CheckpointMetrics]:
        node = task.node
        latency = node.fabric.latency
        metrics = CheckpointMetrics()
        task.freeze()
        ckpt: Optional[MitosisCheckpoint] = None
        frame_chunks: list[np.ndarray] = []
        try:
            ckpt = MitosisCheckpoint(task.comm, node)
            total_present = 0
            preserve = np.int64(
                int(PteFlags.ACCESSED) | int(PteFlags.DIRTY) | int(PteFlags.HOT)
            )
            base = np.int64(int(PteFlags.PRESENT) | int(PteFlags.USER))
            for leaf_index, leaf in task.mm.pagetable.leaves():
                present = (leaf.ptes & np.int64(int(PteFlags.PRESENT))) != 0
                count = int(np.count_nonzero(present))
                shadow_ptes = np.zeros(PTES_PER_LEAF, dtype=np.int64)
                if count:
                    shadow = node.dram.alloc_many(count)
                    frame_chunks.append(shadow)
                    kept = leaf.ptes[present] & preserve
                    shadow_ptes[present] = (
                        (shadow << np.int64(PTE_FRAME_SHIFT)) | base | kept
                    )
                    total_present += count
                ckpt.pagetable.install_leaf(leaf_index, PteLeaf(shadow_ptes))
            ckpt.present_pages = total_present
            if frame_chunks:
                ckpt.shadow_frames = np.concatenate(frame_chunks)
            metrics.note(
                "shadow_copy",
                latency.copy_ns(total_present * PAGE_SIZE, src_cxl=False, dst_cxl=False),
            )
            metrics.local_shadow_bytes = ckpt.local_shadow_bytes

            # Serialize the OS state (metadata only — no page contents).
            ckpt.task_record = task_to_records(task)
            ckpt.vma_records = vma_records(task)
            pagemaps = pagemap_records(task)
            wire = {
                "task": ckpt.task_record.to_wire(),
                "vmas": [r.to_wire() for r in ckpt.vma_records],
                "pagemaps": [r.to_wire() for r in pagemaps],
            }
            blob, encode_ns = self.codec.encode_with_cost(
                wire, nrecords=2 + len(ckpt.vma_records) + len(pagemaps)
            )
            ckpt.os_state_bytes = len(blob)
            metrics.note("serialize_os_state", encode_ns)
            metrics.serialized_bytes = len(blob)
            # Part of the operation: crash alarms in the window fire here.
            node.clock.advance(metrics.latency_ns)
        except BaseException:
            # Release partial shadow frames.  If the parent node crashed,
            # its quarantined DRAM pool absorbs the puts as no-ops (the
            # shadow died with the node — §3.1's point-of-failure coupling).
            if frame_chunks:
                node.dram.put(np.concatenate(frame_chunks))
            if ckpt is not None:
                ckpt.shadow_frames = np.empty(0, dtype=np.int64)
                ckpt._deleted = True
            raise
        finally:
            task.thaw()
        return ckpt, metrics

    # -- restore ------------------------------------------------------------------

    def restore(
        self,
        checkpoint: MitosisCheckpoint,
        node: ComputeNode,
        *,
        container: Optional[Any] = None,
        policy: Optional[Any] = None,
    ) -> RestoreResult:
        if policy is None:
            policy = MitosisPolicy()
        if checkpoint.parent_node.failed:
            from repro.os.kernel import NodeFailedError

            raise NodeFailedError(
                f"Mitosis checkpoint of {checkpoint.comm!r} was coupled to "
                f"{checkpoint.parent_node.name!r}, which has failed (§3.1: "
                "the parent node is a point of failure)"
            )
        kernel = node.kernel
        metrics = RestoreMetrics()
        plan = plan_for(checkpoint, node.fabric, build_restore_plan)

        metrics.note("process_create", PROC_CREATE_NS)
        task = kernel.spawn_task(checkpoint.comm, container=container)
        try:
            return self._restore_into(task, checkpoint, node, policy, metrics, plan)
        except BaseException:
            # Failed restores must not leak frames; a mid-restore node
            # crash already tore the task down via node.fail().
            if task.state is not TaskState.DEAD:
                kernel.exit_task(task)
            raise

    def _restore_into(
        self, task, checkpoint, node, policy, metrics, plan
    ) -> RestoreResult:
        latency = node.fabric.latency

        # Ship + deserialize the OS state over the CXL fabric.
        nbytes = checkpoint.os_state_bytes
        metrics.note(
            "os_state_transfer",
            latency.copy_ns(nbytes, src_cxl=False, dst_cxl=True)
            + latency.copy_ns(nbytes, src_cxl=True, dst_cxl=False),
        )
        metrics.note(
            "os_state_deserialize",
            self.codec.costs.decode_ns(nbytes, plan.n_meta_records),
        )

        # Redo regs, fds and namespaces; rebuild the VMA tree and the
        # remote-marked page-table skeleton.
        rebuild_os_state(task, node, checkpoint.task_record, plan.vma_specs, metrics)
        metrics.note(
            "pt_rebuild", PT_REBUILD_PER_PAGE_NS * checkpoint.present_pages
        )

        # Execution pulls pages lazily from the parent's shadow over CXL.
        task.mm.ckpt_backing = CheckpointBacking(
            checkpoint=checkpoint, policy=policy, holds_frame_refs=False
        )

        node.clock.advance(metrics.latency_ns)
        return RestoreResult(task=task, metrics=metrics)


__all__ = ["MitosisCxl", "MitosisCheckpoint", "MitosisPolicy", "build_restore_plan"]
