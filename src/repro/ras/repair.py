"""Deterministic poison repair: CoW parent → peer replica → re-checkpoint.

The serviceability half of the RAS loop.  Once a checksum point has
flagged a checkpoint (:class:`repro.exceptions.PoisonError`), the
:class:`Repairer` walks a fixed escalation ladder:

1. **cow** — the frames' pristine bytes still exist in the parent
   process's address space (the checkpoint copied them out of it), so
   re-copy from the live parent at DRAM→CXL bandwidth.  Cheapest;
   unavailable when the parent is gone, the poison hit metadata (heap or
   image files), or the frames are shared with live children.
2. **replica** — re-fetch the affected bytes from a peer-pod replica
   (the PR 6 ``Replicator`` ships full images; repair pulls only the
   poisoned pages back over the same link).  Costs link latency +
   bytes/bandwidth.
3. **recheckpoint** — clean slate: delete the
   corrupt image and take a fresh checkpoint from the live parent.

Every rung allocates *fresh* frames and drops the poisoned ones, whose
last reference then moves them to the allocator's offline set — repaired
images never reference a previously poisoned frame.  Transient
allocation failures during repair retry with capped exponential backoff
(:func:`repro.faults.recovery.call_with_retries`); rung costs advance
the repairing node's virtual clock, so p99 repair latency is measurable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.cluster.interconnect import RDMA, LinkSpec
from repro.cxl.allocator import OutOfMemoryError
from repro.exceptions import PoisonError
from repro.faults.recovery import RetryExhaustedError, RetryPolicy, call_with_retries
from repro.os.mm.pte import PTE_FLAG_MASK, PTE_FRAME_SHIFT, PteFlags
from repro.sim.units import PAGE_SIZE
from repro.telemetry import TRACE

#: Per-frame bookkeeping while splicing a repaired frame into an image
#: (PTE rewrite, checksum recompute).
FRAME_FIXUP_NS = 200.0

_PRESENT = np.int64(int(PteFlags.PRESENT))
_FLAG_MASK = np.int64(PTE_FLAG_MASK)


class RepairUnavailableError(RuntimeError):
    """The requested repair rung cannot run for this checkpoint; escalate."""


@dataclass
class RepairOutcome:
    """What one successful repair did."""

    rung: str  # "cow" | "replica" | "recheckpoint"
    frames_repaired: int
    repair_ns: int
    attempts: int
    checkpoint: object  # the serviceable image (new object on recheckpoint)


class Repairer:
    """Escalating poison repair for checkpoint images.

    ``policy`` is ``"ladder"`` (try every rung in order) or a single rung
    name; ``parent_task`` enables the cow and recheckpoint rungs,
    ``mechanism`` the recheckpoint rung, and ``replica_available`` the
    replica rung (``link`` prices the fetch; RDMA by default, matching
    the PR 6 replication fabric).

    ``co_checkpoints`` lists the other live checkpoints that may share
    dedup'd chunk frames with the one under repair.  A poisoned frame
    whose every extra reference is such a co-checkpoint's chunk listing
    is repaired **once** — fresh frame, content restored, chunk index
    re-pointed — and every sharer's image is rewritten to the new frame.
    Extra references from live *children* (mapped PTEs) still refuse, as
    before: a child's mapping cannot be retargeted.
    """

    RUNGS = ("cow", "replica", "recheckpoint")

    def __init__(
        self,
        *,
        policy: str = "ladder",
        parent_task=None,
        mechanism=None,
        replica_available: bool = False,
        link: LinkSpec = RDMA,
        retry: Optional[RetryPolicy] = None,
        rng=None,
        co_checkpoints=(),
    ) -> None:
        if policy != "ladder" and policy not in self.RUNGS:
            raise ValueError(f"unknown repair policy {policy!r}")
        self.policy = policy
        self.parent_task = parent_task
        self.mechanism = mechanism
        self.replica_available = replica_available
        self.link = link
        self.retry = retry or RetryPolicy()
        self.rng = rng
        self.co_checkpoints = list(co_checkpoints)

    # -- public entry ---------------------------------------------------------

    def repair(self, checkpoint, clock) -> RepairOutcome:
        """Repair every poisoned frame of ``checkpoint``; raise on failure.

        Deterministic: the rung order is fixed, rung costs are pure
        functions of the damage, and retry backoff draws from the
        caller-provided RNG stream.
        """
        from repro.ras.checksum import checkpoint_frames

        pool = self._pool(checkpoint)
        bad = pool.poisoned_in(checkpoint_frames(checkpoint))
        rungs = self.RUNGS if self.policy == "ladder" else (self.policy,)
        span = TRACE.span("ras.repair", clock=clock, frames=int(bad.size))
        last_error: Optional[Exception] = None
        try:
            for rung in rungs:
                attempts = 0

                def attempt(rung=rung):
                    nonlocal attempts
                    attempts += 1
                    return self._run_rung(rung, checkpoint, clock, bad)

                try:
                    before = clock.now
                    result = call_with_retries(
                        attempt,
                        policy=self.retry,
                        clock=clock,
                        rng=self.rng,
                        retry_on=(OutOfMemoryError,),
                        label=f"ras.repair.{rung}",
                    )
                except RepairUnavailableError as exc:
                    last_error = exc
                    continue
                except RetryExhaustedError as exc:
                    last_error = exc
                    continue
                TRACE.count(f"ras.repaired_{rung}")
                repair_ns = clock.now - before
                TRACE.observe("ras.repair_ns", repair_ns)
                span.set(rung=rung)
                return RepairOutcome(
                    rung=rung,
                    frames_repaired=int(bad.size),
                    repair_ns=repair_ns,
                    attempts=attempts,
                    checkpoint=result,
                )
            raise PoisonError(
                pool.name, bad.tolist(),
                f"repair failed (policy={self.policy}, last: {last_error})",
            )
        finally:
            span.finish()

    # -- rungs ----------------------------------------------------------------

    def _run_rung(self, rung: str, checkpoint, clock, bad: np.ndarray):
        if rung == "cow":
            return self._repair_from_parent(checkpoint, clock, bad)
        if rung == "replica":
            return self._repair_from_replica(checkpoint, clock, bad)
        if rung == "recheckpoint":
            return self._recheckpoint(checkpoint, clock)
        raise AssertionError(f"unknown rung {rung!r}")

    def _parent_alive(self) -> bool:
        task = self.parent_task
        return (
            task is not None
            and task.state.name != "DEAD"
            and not task.node.failed
        )

    def _pool(self, checkpoint):
        fabric = getattr(checkpoint, "fabric", None)
        if fabric is None:
            fabric = checkpoint.cxlfs.fabric
        return fabric.device.frames

    def _fabric(self, checkpoint):
        fabric = getattr(checkpoint, "fabric", None)
        if fabric is None:
            fabric = checkpoint.cxlfs.fabric
        return fabric

    def _repair_from_parent(self, checkpoint, clock, bad: np.ndarray):
        """Rung 1: re-copy poisoned data pages from the live CoW parent."""
        if not self._parent_alive():
            raise RepairUnavailableError("no live parent to copy from")
        data = getattr(checkpoint, "data_frames", None)
        if data is None:
            # criu images are serialized files; the parent's address space
            # does not contain their bytes.
            raise RepairUnavailableError("image is not parent-addressable")
        if not np.isin(bad, data).all():
            raise RepairUnavailableError(
                "poison hit image metadata; parent holds only data pages"
            )
        nbytes = self._swap_frames(checkpoint, bad)
        latency = self._fabric(checkpoint).latency
        clock.advance(
            int(latency.copy_ns(nbytes, src_cxl=False, dst_cxl=True)
                + FRAME_FIXUP_NS * bad.size)
        )
        return checkpoint

    def _repair_from_replica(self, checkpoint, clock, bad: np.ndarray):
        """Rung 2: re-fetch poisoned pages from a peer-pod replica."""
        if not self.replica_available:
            raise RepairUnavailableError("no peer-pod replica registered")
        if getattr(checkpoint, "data_frames", None) is not None:
            nbytes = self._swap_frames(checkpoint, bad)
        else:
            # criu-cxl: poison may hit the image files, the adopted chunk
            # frames (dedup), or both — files rewrite in place, chunk
            # frames get the shared-frame swap.
            chunk_frames = getattr(checkpoint, "chunk_frames", None)
            bad_chunks = (
                bad[np.isin(bad, chunk_frames)]
                if chunk_frames is not None and np.size(chunk_frames)
                else np.empty(0, dtype=np.int64)
            )
            bad_files = bad[~np.isin(bad, bad_chunks)]
            nbytes = 0
            if bad_files.size:
                nbytes += self._rewrite_files(checkpoint, bad_files)
            if bad_chunks.size:
                nbytes += self._swap_frames(checkpoint, bad_chunks)
            if nbytes == 0:
                raise RepairUnavailableError("no affected image file found")
        link = self.link
        transfer_ns = (
            link.setup_ns + link.latency_ns + link.serialization_ns(nbytes)
        )
        latency = self._fabric(checkpoint).latency
        clock.advance(
            int(transfer_ns
                + latency.copy_ns(nbytes, src_cxl=False, dst_cxl=True)
                + FRAME_FIXUP_NS * max(1, bad.size))
        )
        return checkpoint

    def _recheckpoint(self, checkpoint, clock):
        """Rung 3: clean slate — fresh checkpoint, delete the corrupt one."""
        if self.mechanism is None or not self._parent_alive():
            raise RepairUnavailableError("no mechanism/parent to re-checkpoint")
        source_clock = self.parent_task.node.clock
        before = source_clock.now
        fresh, _metrics = self.mechanism.checkpoint(self.parent_task)
        if clock is not source_clock:
            # The repairing (serving) node blocks on the fresh image.
            clock.advance(source_clock.now - before)
        checkpoint.delete()  # last refs drop; poisoned frames auto-offline
        return fresh

    # -- frame surgery --------------------------------------------------------

    def _chunk_sharers(self, checkpoint, bad: np.ndarray):
        """Map each multiply-referenced bad frame to its co-owner images.

        Legal only when *every* extra reference is a live co-checkpoint's
        chunk listing (``data_frames`` for cxlfork adopters, ``chunk_frames``
        for criu-cxl) and the chunk index's sharer count matches the pool
        refcount exactly — any unexplained reference means a live child
        maps the frame, and the repair must escalate as before.
        """
        pool = self._pool(checkpoint)
        refs = pool.refcounts(bad)
        shared = bad[refs != 1]
        if shared.size == 0:
            return {}
        index = getattr(self._fabric(checkpoint), "_chunk_index", None)
        if index is None:
            raise RepairUnavailableError(
                "poisoned frames are shared with live children"
            )
        co = [
            c
            for c in self.co_checkpoints
            if c is not checkpoint and not getattr(c, "_deleted", False)
        ]
        co_owners: dict[int, list] = {}
        for frame, rc in zip(shared.tolist(), pool.refcounts(shared).tolist()):
            if index.sharer_count(frame) != rc:
                raise RepairUnavailableError(
                    "poisoned frames are shared with live children"
                )
            owners = []
            for other in co:
                listing = getattr(other, "data_frames", None)
                if listing is None:
                    listing = getattr(other, "chunk_frames", None)
                if listing is not None and np.isin(frame, listing):
                    owners.append(other)
            if len(owners) != rc - 1:
                raise RepairUnavailableError(
                    f"chunk frame {frame} has {rc} sharer(s) but only "
                    f"{len(owners) + 1} enumerated co-checkpoint(s)"
                )
            co_owners[frame] = owners
        return co_owners

    @staticmethod
    def _rewrite_image(checkpoint, mapping: dict) -> None:
        """Retarget one image's frame references through ``mapping``."""
        from repro.ras.checksum import invalidate_restore_plan

        # The image's frame identity changes in place: any memoized
        # restore plan (attach arrays, verify frame set) is now stale.
        invalidate_restore_plan(checkpoint)
        pt = getattr(checkpoint, "pagetable", None)
        if pt is not None:
            for _, leaf in pt.leaves():
                present = (leaf.ptes & _PRESENT) != 0
                if not np.any(present):
                    continue
                frames = leaf.ptes >> np.int64(PTE_FRAME_SHIFT)
                for old, new in mapping.items():
                    hit = present & (frames == old)
                    if np.any(hit):
                        leaf.ptes[hit] = (
                            (np.int64(new) << np.int64(PTE_FRAME_SHIFT))
                            | (leaf.ptes[hit] & _FLAG_MASK)
                        )
        data = getattr(checkpoint, "data_frames", None)
        if data is not None:
            for old, new in mapping.items():
                data[data == old] = new
        chunk_frames = getattr(checkpoint, "chunk_frames", None)
        if chunk_frames is not None and np.size(chunk_frames):
            for old, new in mapping.items():
                chunk_frames[chunk_frames == old] = new
        heap_frames = getattr(getattr(checkpoint, "heap", None), "_frames", None)
        if heap_frames is not None:
            for old, new in mapping.items():
                heap_frames[heap_frames == old] = new

    def _swap_frames(self, checkpoint, bad: np.ndarray) -> int:
        """Replace ``bad`` frames of a cxlfork image with fresh ones.

        Rewrites the checkpointed PTE leaves (preserving flag bits), the
        ``data_frames`` array, and the metadata heap's backing list, then
        drops the old frames — their last reference offlines them.  A
        frame shared through the chunk index is repaired once: every
        enumerated co-checkpoint is rewritten to the fresh frame and the
        index is re-pointed, so sharers keep sharing the repaired copy.
        Frames referenced by live children still escalate.
        """
        pool = self._pool(checkpoint)
        co_owners = self._chunk_sharers(checkpoint, bad)
        fabric = self._fabric(checkpoint)
        index = getattr(fabric, "_chunk_index", None)
        fresh = fabric.alloc_frames(int(bad.size))
        mapping = dict(zip((int(f) for f in bad), (int(f) for f in fresh)))
        self._rewrite_image(checkpoint, mapping)
        rewritten = set()
        for old, owners in co_owners.items():
            new = mapping[old]
            for other in owners:
                if id(other) not in rewritten:
                    self._rewrite_image(other, mapping)
                    rewritten.add(id(other))
                # The co-owner's reference moves from the old frame to the
                # repaired one (the old ref is dropped in the put loop).
                fabric.get_frames(np.array([new], dtype=np.int64))
        if index is not None:
            for old, new in mapping.items():
                index.repoint(old, new)
        fabric.put_frames(bad)  # this image's reference on every bad frame
        for old, owners in co_owners.items():
            for _ in owners:  # each co-owner's old reference
                fabric.put_frames(np.array([old], dtype=np.int64))
        # Every reference is gone now: poisoned frames auto-offline.
        return int(bad.size) * PAGE_SIZE

    def _rewrite_files(self, checkpoint, bad: np.ndarray) -> int:
        """Replace the affected image files of a criu checkpoint.

        ``write_file`` unlinks the old file first, dropping its frames —
        the poisoned ones offline themselves — and reallocates fresh ones.
        """
        from repro.ras.checksum import invalidate_restore_plan

        invalidate_restore_plan(checkpoint)
        cxlfs = checkpoint.cxlfs
        pool = self._pool(checkpoint)
        rewritten = 0
        for path in checkpoint.file_paths:
            if not cxlfs.exists(path):
                continue
            stat = cxlfs.stat(path)
            if pool.poisoned_in(stat.frames).size == 0:
                continue
            size = int(stat.size_bytes)
            cxlfs.write_file(path, size)
            rewritten += size
        if rewritten == 0:
            raise RepairUnavailableError("no affected image file found")
        return rewritten


__all__ = [
    "Repairer",
    "RepairOutcome",
    "RepairUnavailableError",
    "FRAME_FIXUP_NS",
]
