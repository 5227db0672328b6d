"""Checkpoint replication: ship images between pods' object stores.

A checkpoint is only restorable inside the pod that holds its frames — a
CXLfork image *is* CXL frames plus rebased metadata, a CRIU image is files
on the pod's in-CXL file system.  To serve a function from another pod,
the image must be **shipped**: encoded into a portable wire form with the
:mod:`repro.serial` codec, pushed over the inter-pod interconnect, and
**materialized** — frames re-allocated from the destination pod's device,
pointers re-rebased against the destination heap (mitosis-style
ship-and-restore, amortized over every later restore on that pod).

The wire form is canonical and content-addressed-friendly: it carries the
*logical* image (PTE flags with frame numbers replaced by dense ordinals,
VMA records, register/namespace/fd state, page payload sizes) and nothing
pod-specific, so ``encode_image(materialize(encode_image(ckpt)))`` is
bit-identical to ``encode_image(ckpt)`` — the determinism guarantee the
replication tests pin.

Two policies decide *when* to ship (Aquifer's pull/push split):

* **pull-on-miss** — ship lazily, when the router routes a request to a
  pod that lacks the image (first cross-pod cold start pays the wire);
* **push** — ship eagerly after checkpoint creation to ``fanout`` other
  pods, trading background interconnect traffic for locality everywhere.

**Delta replication** (dedup-aware shipping): when the source image was
sealed under :mod:`repro.dedup`, the wire form carries each page's chunk
code alongside its PTE flags.  Before paying the interconnect, the shipper
asks the destination pod's chunk index which codes it is missing and ships
only those page payloads (plus the 8-byte-per-chunk hash listing); pages
the destination already holds are adopted from its index at materialize
time instead of traversing the wire.  With dedup off the wire form is
byte-identical to the non-dedup encoding and every page ships, so the
pinned replication digests are unaffected.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.os.mm.pagetable import PTES_PER_LEAF, PteLeaf
from repro.os.mm.pte import PTE_FLAG_MASK, PTE_FRAME_SHIFT
from repro.os.mm.vma import VmaLeaf
from repro.ras import RAS, verify_checkpoint
from repro.rfork.criu import CriuCheckpoint
from repro.rfork.criu import build_restore_plan as _criu_restore_plan
from repro.rfork.cxlfork import (
    REBASE_FIXUP_NS,
    VMA_STRUCT_BYTES,
    CxlForkCheckpoint,
)
from repro.rfork.cxlfork import build_restore_plan as _cxlfork_restore_plan
from repro.rfork.restoreplan import RESTORE_PLAN, plan_for
from repro.serial.blob import CxlHeap
from repro.serial.codec import Codec
from repro.serial.rebase import Rebaser
from repro.serial.records import (
    PagemapRecord,
    RegsRecord,
    TaskRecord,
    VmaRecord,
)
from repro.sim.units import PAGE_SIZE
from repro.telemetry import TRACE


class ReplicationError(RuntimeError):
    """A checkpoint cannot be shipped (unsupported or inconsistent image)."""


# -- wire form -----------------------------------------------------------------


def wire_image(checkpoint) -> dict:
    """The portable, pod-independent image of a checkpoint.

    Pure logical content — no frame numbers, heap offsets, image ids, or
    node names — so the same process state always encodes to the same
    bytes regardless of which pod holds it.
    """
    if isinstance(checkpoint, (CxlForkCheckpoint, CriuCheckpoint)):
        if RAS.active():
            # A poisoned source must never replicate: shipping it would
            # spread the corruption to every peer pod (the CXL "viral"
            # semantic, enforced in software at the encode boundary).
            verify_checkpoint(checkpoint, context="replication.wire_image")
    if isinstance(checkpoint, CxlForkCheckpoint):
        return _cxlfork_wire(checkpoint)
    if isinstance(checkpoint, CriuCheckpoint):
        return _criu_wire(checkpoint)
    raise ReplicationError(
        f"cannot ship a {type(checkpoint).__name__}: mitosis-style "
        "checkpoints are coupled to a live parent node and have no "
        "self-contained image (§3.1); re-checkpoint with cxlfork/criu-cxl"
    )


def _cxlfork_wire(ckpt: CxlForkCheckpoint) -> dict:
    flag_mask = np.int64(PTE_FLAG_MASK)
    dedup = ckpt.chunk_codes is not None
    leaves = []
    for leaf_index in sorted(ckpt.leaf_offsets):
        leaf: PteLeaf = ckpt.heap.deref(ckpt.leaf_offsets[leaf_index])
        positions = np.nonzero(leaf.ptes)[0]
        entry = {
            "index": int(leaf_index),
            "pos": positions,
            "flags": leaf.ptes[positions] & flag_mask,
        }
        if dedup:
            # Chunk codes ride the wire so the destination can adopt pages
            # it already holds instead of receiving their payloads.  Only
            # present when the image was sealed dedup-on: a dedup-off
            # checkpoint's wire form stays byte-identical to before.
            # Fixed-width (8 bytes/code) so the blob size depends on the
            # page count alone, never on the code values.
            recorded = ckpt.chunk_codes.get(int(leaf_index))
            if recorded is None:
                entry["codes"] = bytes(8 * int(positions.size))
            else:
                entry["codes"] = recorded[positions].astype("<i8").tobytes()
        leaves.append(entry)
    vma_leaves = []
    for offset in ckpt.vma_leaf_offsets:
        leaf: VmaLeaf = ckpt.heap.deref(offset)
        vma_leaves.append([VmaRecord.capture(v).to_wire() for v in leaf.vmas])
    regs: RegsRecord = ckpt.heap.deref(ckpt.regs_offset)
    wire = {
        "mech": "cxlfork",
        "comm": ckpt.comm,
        "leaves": leaves,
        "vma_leaves": vma_leaves,
        "regs": regs.to_wire(),
        "global": ckpt.heap.deref(ckpt.global_offset),
        "present_pages": ckpt.present_pages,
    }
    if dedup:
        wire["zero_elided"] = int(ckpt.zero_elided_pages)
    return wire


def _criu_wire(ckpt: CriuCheckpoint) -> dict:
    if ckpt.task_record is None:
        raise ReplicationError(f"CRIU image {ckpt.image_id!r} has no task record")
    wire = {
        "mech": "criu-cxl",
        "comm": ckpt.comm,
        "task": ckpt.task_record.to_wire(),
        "vmas": [r.to_wire() for r in ckpt.vma_records],
        "pagemaps": [r.to_wire() for r in ckpt.pagemaps],
        "dumped_pages": ckpt.dumped_pages,
        "metadata_bytes": ckpt.metadata_bytes,
    }
    if ckpt.page_codes.size:
        # vpn -> content code for every dumped page (dedup-on seals only).
        wire["chunks"] = {
            "vpns": ckpt.page_code_vpns.astype("<i8").tobytes(),
            "codes": ckpt.page_codes.astype("<i8").tobytes(),
        }
        wire["zero_elided"] = int(ckpt.zero_elided_pages)
    return wire


def encode_image(checkpoint, *, codec: Optional[Codec] = None) -> bytes:
    """Canonical serialized wire image (the shipped metadata bytes)."""
    return (codec or Codec()).encode(wire_image(checkpoint))


def shipped_bytes(checkpoint, blob: bytes) -> int:
    """Total volume on the wire: metadata blob + raw page payload.

    The blob carries page *structure*; the 4 KiB page payloads travel
    alongside it and dominate the transfer for real functions.
    """
    return len(blob) + getattr(checkpoint, "data_bytes", 0)


#: Per-chunk hash listing overhead on the delta wire (a truncated 64-bit
#: content code per unique chunk, matching :mod:`repro.dedup`'s code width).
HASH_WIRE_BYTES = 8


def _decode_codes(buf: bytes) -> np.ndarray:
    """Fixed-width wire form back to an int64 code array (always a copy)."""
    return np.frombuffer(buf, dtype="<i8").astype(np.int64)


def wire_chunk_codes(wire: dict) -> np.ndarray:
    """Every chunk code a wire image carries (empty when sealed dedup-off)."""
    if wire.get("mech") == "cxlfork":
        chunks = [
            _decode_codes(entry["codes"])
            for entry in wire["leaves"]
            if "codes" in entry
        ]
        if not chunks:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(chunks)
    payload = wire.get("chunks")
    if payload is None:
        return np.empty(0, dtype=np.int64)
    return _decode_codes(payload["codes"])


# -- materialization -----------------------------------------------------------


def materialize(wire: dict, pod, *, codec: Optional[Codec] = None):
    """Rebuild a shipped image against ``pod``'s fabric / file system.

    ``pod`` is a :class:`repro.cluster.membership.PodHandle` (anything
    with ``.fabric``, ``.cxlfs``, and ``.next_image_id()``).  Returns
    ``(checkpoint, install_ns)`` where ``install_ns`` is the virtual-time
    cost of landing the image (decode + non-temporal stores + re-rebase).
    """
    codec = codec or Codec()
    mech = wire.get("mech")
    if mech == "cxlfork":
        ckpt, install_ns = _materialize_cxlfork(wire, pod, codec)
        builder = _cxlfork_restore_plan
    elif mech == "criu-cxl":
        ckpt, install_ns = _materialize_criu(wire, pod, codec)
        builder = _criu_restore_plan
    else:
        raise ReplicationError(f"unknown wire mechanism {mech!r}")
    if RESTORE_PLAN.active():
        # Seed the restore plan while the landed image is hot: the first
        # cold start on this pod then restores plan-served.  Codec-keyed
        # fields (the cxlfork global-state decode) stay lazy — the pod's
        # restoring mechanism may use a different codec than this ship.
        plan_for(ckpt, pod.fabric, builder)
    return ckpt, install_ns


def _materialize_cxlfork(wire: dict, pod, codec: Codec):
    fabric = pod.fabric
    latency = fabric.latency
    ckpt = CxlForkCheckpoint(wire["comm"], fabric, CxlHeap(fabric, f"ckpt:{wire['comm']}"))
    ckpt.source_node = f"replica@{pod.name}"
    rebaser = Rebaser(ckpt.heap)
    frame_chunks: list[np.ndarray] = []
    interner = None
    if any("codes" in entry for entry in wire["leaves"]):
        # Dedup-sealed image: resolve each shipped code against the
        # destination's chunk index — adopt chunks it already holds, and
        # allocate + register the ones that traversed the wire, so the
        # landed replica both *consumes* and *seeds* dedup on this pod.
        from repro.dedup.seal import ChunkInterner

        interner = ChunkInterner(fabric.chunk_index, fabric)
        ckpt.chunk_codes = {}
        ckpt.zero_elided_pages = int(wire.get("zero_elided", 0))
    try:
        total_present = 0
        for entry in wire["leaves"]:
            new_ptes = np.zeros(PTES_PER_LEAF, dtype=np.int64)
            positions = np.asarray(entry["pos"], dtype=np.int64)
            if positions.size:
                if interner is not None:
                    leaf_codes = _decode_codes(entry["codes"])
                    frames = interner.intern_leaf(leaf_codes)
                    recorded = np.zeros(PTES_PER_LEAF, dtype=np.int64)
                    recorded[positions] = leaf_codes
                    ckpt.chunk_codes[int(entry["index"])] = recorded
                else:
                    frames = fabric.alloc_frames(int(positions.size))
                frame_chunks.append(frames)
                flags = np.asarray(entry["flags"], dtype=np.int64)
                new_ptes[positions] = (frames << np.int64(PTE_FRAME_SHIFT)) | flags
                total_present += int(positions.size)
            leaf = PteLeaf(new_ptes, cxl_resident=True)
            ckpt.pagetable.install_leaf(entry["index"], leaf)
            offset = rebaser.intern(leaf, PAGE_SIZE)
            leaf.backing_frame = int(offset)
            ckpt.leaf_offsets[entry["index"]] = int(offset)
        ckpt.present_pages = total_present
        if frame_chunks:
            ckpt.data_frames = np.concatenate(frame_chunks)
        if interner is not None:
            interner.finish()
            ckpt.shared_chunk_pages = interner.shared_pages

        vma_bytes = 0
        for records in wire["vma_leaves"]:
            vmas = []
            for rec_wire in records:
                record = VmaRecord.from_wire(rec_wire)
                vma = record.rebuild(file_registered=False)
                if not vma.is_file_backed():
                    vma = record.rebuild(file_registered=True)
                vmas.append(vma)
            leaf = VmaLeaf(vmas, cxl_resident=True)
            ckpt.vma_leaves.append(leaf)
            size = sum(
                VMA_STRUCT_BYTES + (len(v.path) if v.path else 0) for v in vmas
            )
            vma_bytes += size
            offset = rebaser.intern(leaf, max(size, 1))
            leaf.backing_frame = int(offset)
            ckpt.vma_leaf_offsets.append(int(offset))

        blob = wire["global"]
        ckpt.global_offset = ckpt.heap.store(blob, len(blob))
        regs = RegsRecord.from_wire(wire["regs"])
        ckpt.regs_offset = ckpt.heap.store(
            regs, regs.restore_into().serialized_size()
        )
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
        ckpt.rebased = True
        ckpt.verify_detached()
    except BaseException:
        # A failed materialization must not strand destination frames.
        if interner is not None:
            interner.abort()
        if frame_chunks:
            fabric.put_frames(np.concatenate(frame_chunks))
        ckpt.data_frames = np.empty(0, dtype=np.int64)
        ckpt._deleted = True
        ckpt.heap.release()
        raise

    # Adopted chunks are already device-resident; only the pages that
    # actually traversed the wire pay the non-temporal landing stores.
    landed_data_bytes = ckpt.data_bytes - ckpt.shared_chunk_pages * PAGE_SIZE
    n_structs = ckpt.pagetable.leaf_count + len(ckpt.vma_leaves)
    n_records = n_structs + sum(len(r) for r in wire["vma_leaves"]) + 2
    install_ns = (
        codec.costs.decode_ns(ckpt.metadata_bytes + vma_bytes, n_records)
        + latency.copy_ns(landed_data_bytes, src_cxl=False, dst_cxl=True)
        + latency.copy_ns(
            ckpt.pagetable.leaf_count * PAGE_SIZE, src_cxl=False, dst_cxl=True
        )
        + n_structs * REBASE_FIXUP_NS
    )
    return ckpt, install_ns


def _materialize_criu(wire: dict, pod, codec: Codec):
    cxlfs = pod.cxlfs
    if cxlfs is None:
        raise ReplicationError(
            f"pod {pod.name!r} has no CXL file system; cannot land a CRIU image"
        )
    latency = pod.fabric.latency
    ckpt = CriuCheckpoint(wire["comm"], cxlfs, pod.next_image_id(wire["comm"]))
    ckpt.task_record = TaskRecord.from_wire(wire["task"])
    ckpt.vma_records = [VmaRecord.from_wire(w) for w in wire["vmas"]]
    ckpt.pagemaps = [PagemapRecord.from_wire(w) for w in wire["pagemaps"]]
    ckpt.dumped_pages = wire["dumped_pages"]

    chunks = wire.get("chunks")
    if chunks is not None:
        # Dedup-sealed image: dumped pages whose chunks this pod already
        # holds resolve to adopted frames; the rest land in pages.img.
        from repro.dedup.chunkindex import MISS
        from repro.dedup.seal import ChunkInterner

        fabric = pod.fabric
        interner = ChunkInterner(fabric.chunk_index, fabric)
        ckpt.page_code_vpns = _decode_codes(chunks["vpns"])
        ckpt.page_codes = _decode_codes(chunks["codes"])
        ckpt.zero_elided_pages = int(wire.get("zero_elided", 0))
        frames = interner.adopt_only(ckpt.page_codes)
        ckpt.chunk_frames = frames[frames != MISS]
        ckpt.dedup_pages = int(ckpt.chunk_frames.size)
        interner.finish()

    blob_t = codec.encode(wire["task"])
    blob_v = codec.encode(wire["vmas"])
    blob_m = codec.encode(wire["pagemaps"])
    prefix = f"/criu/{ckpt.image_id}"
    cxlfs.write_file(f"{prefix}/task.img", len(blob_t))
    cxlfs.write_file(f"{prefix}/vmas.img", len(blob_v))
    cxlfs.write_file(f"{prefix}/pagemap.img", len(blob_m))
    cxlfs.write_file(f"{prefix}/pages.img", ckpt.stored_data_bytes)
    ckpt.metadata_bytes = len(blob_t) + len(blob_v) + len(blob_m)
    if ckpt.metadata_bytes != wire["metadata_bytes"]:
        raise ReplicationError(
            f"CRIU image re-encode drifted: {ckpt.metadata_bytes} != "
            f"{wire['metadata_bytes']} bytes — codec mismatch between pods"
        )
    n_records = 4 + len(ckpt.vma_records) + len(ckpt.pagemaps)
    install_ns = codec.costs.decode_ns(
        ckpt.metadata_bytes, n_records
    ) + latency.copy_ns(ckpt.resident_cxl_bytes, src_cxl=False, dst_cxl=True)
    return ckpt, install_ns


# -- the shipper ---------------------------------------------------------------


@dataclass
class ReplicationStats:
    """Counters for one replicator's lifetime."""

    ships: int = 0
    bytes_shipped: int = 0
    dedup_hits: int = 0
    encode_cache_hits: int = 0
    failed: int = 0


@dataclass
class DeltaStats:
    """Delta-replication counters, kept separate from
    :class:`ReplicationStats` (whose shape pinned digests depend on).
    All zero unless dedup-sealed images were shipped."""

    #: Ships that negotiated a missing-set instead of sending every page.
    delta_ships: int = 0
    #: Unique chunks the destination already held (payload never shipped).
    chunks_deduped: int = 0
    #: Page payload a full ship would have moved.
    full_page_bytes: int = 0
    #: Page payload actually moved (missing chunks only).
    wire_page_bytes: int = 0
    #: Chunk-hash listing overhead paid for the negotiation.
    hash_bytes: int = 0

    @property
    def bytes_saved(self) -> int:
        return self.full_page_bytes - self.wire_page_bytes - self.hash_bytes


@dataclass
class _InFlight:
    done_at: int
    waiters: list = field(default_factory=list)


class Replicator:
    """Ships checkpoint images between pods over the interconnect.

    In-flight transfers are deduplicated per (user, function, destination):
    a second request for the same image while it is on the wire just waits
    for the first transfer instead of paying the link twice.
    """

    def __init__(self, interconnect, queue, *, user: str = "tenant0",
                 codec: Optional[Codec] = None) -> None:
        self.interconnect = interconnect
        self.queue = queue
        self.user = user
        self.codec = codec or Codec()
        self.stats = ReplicationStats()
        self.delta = DeltaStats()
        self._inflight: dict[tuple, _InFlight] = {}
        # Encoded-blob cache: the wire image is canonical content (see the
        # module docstring), so pushing one checkpoint to N pods can encode
        # once and reuse the bytes.  Dedup-sealed images are keyed by their
        # content hash (mechanism + comm + chunk codes), so a re-seal of
        # identical state — a different object — still hits; images without
        # codes fall back to object identity with a strong reference held.
        self._blob_cache: dict[tuple, tuple[object, bytes]] = {}
        # Decoded-wire cache, same keying.  Sharing one decoded dict across
        # ships is safe because materialize() only *reads* the wire form:
        # every landed structure is freshly built (``from_wire``,
        # ``np.asarray`` of a list) and the only by-reference installs are
        # immutable blobs (the cxlfork global-state bytes).
        self._wire_cache: dict[tuple, tuple[object, dict]] = {}
        self._wire_cache_hits = 0

    _BLOB_CACHE_MAX = 8

    @staticmethod
    def _cache_key(checkpoint) -> tuple:
        key = getattr(checkpoint, "_content_key", None)
        if key is not None:
            return key
        codes = None
        chunk_codes = getattr(checkpoint, "chunk_codes", None)
        if chunk_codes is not None:
            codes = b"".join(
                chunk_codes[i].tobytes() for i in sorted(chunk_codes)
            )
        else:
            page_codes = getattr(checkpoint, "page_codes", None)
            if page_codes is not None and page_codes.size:
                codes = page_codes.tobytes()
        if codes is None:
            return ("id", id(checkpoint))
        digest = hashlib.sha256()
        digest.update(f"{type(checkpoint).__name__}:{checkpoint.comm}:".encode())
        digest.update(codes)
        key = ("content", digest.hexdigest())
        checkpoint._content_key = key
        return key

    def _encoded_blob(self, checkpoint) -> bytes:
        key = self._cache_key(checkpoint)
        cached = self._blob_cache.get(key)
        if cached is not None and (key[0] == "content" or cached[0] is checkpoint):
            self.stats.encode_cache_hits += 1
            return cached[1]
        blob = self.codec.encode(wire_image(checkpoint))
        if len(self._blob_cache) >= self._BLOB_CACHE_MAX:
            self._blob_cache.pop(next(iter(self._blob_cache)))
        self._blob_cache[key] = (checkpoint, blob)
        return blob

    def _decoded_wire(self, checkpoint, blob: bytes) -> dict:
        key = self._cache_key(checkpoint)
        cached = self._wire_cache.get(key)
        if cached is not None and (key[0] == "content" or cached[0] is checkpoint):
            self._wire_cache_hits += 1
            return cached[1]
        wire = self.codec.decode(blob)
        if len(self._wire_cache) >= self._BLOB_CACHE_MAX:
            self._wire_cache.pop(next(iter(self._wire_cache)))
        self._wire_cache[key] = (checkpoint, wire)
        return wire

    def ship(
        self,
        function: str,
        src,
        dst,
        *,
        on_done: Optional[Callable[[Optional[object]], None]] = None,
    ) -> int:
        """Start (or join) a ship of ``function``'s image ``src`` -> ``dst``.

        Returns the virtual completion time.  ``on_done`` fires at that
        time with the destination store entry (None if the destination pod
        died while the image was in flight).
        """
        key = (self.user, function, dst.name)
        flight = self._inflight.get(key)
        if flight is not None:
            self.stats.dedup_hits += 1
            TRACE.count("cluster.replication_dedup")
            if on_done is not None:
                flight.waiters.append(on_done)
            return flight.done_at

        entry = src.store.peek(self.user, function)
        if entry is None:
            raise ReplicationError(
                f"pod {src.name!r} holds no checkpoint for {function!r}"
            )
        # Encode now: once the bytes are on the wire, a source-pod crash
        # cannot lose the transfer (mitosis-style ship, not remote paging).
        blob = self._encoded_blob(entry.checkpoint)
        wire = self._decoded_wire(entry.checkpoint, blob)
        nbytes = shipped_bytes(entry.checkpoint, blob)
        codes = wire_chunk_codes(wire)
        if codes.size:
            # Delta negotiation: ship the chunk-hash listing, ask the
            # destination which chunks it is missing, and move only those
            # payloads.  A destination with no index yet misses everything
            # — but still receives each unique chunk once, so intra-image
            # duplicates never pay the wire twice.
            uniq = np.unique(codes)
            uniq = uniq[uniq != 0]
            dst_index = getattr(dst.fabric, "_chunk_index", None)
            missing = (
                dst_index.missing_codes(codes) if dst_index is not None else uniq
            )
            full_page_bytes = nbytes - len(blob)
            wire_page_bytes = int(missing.size) * PAGE_SIZE
            hash_bytes = int(uniq.size) * HASH_WIRE_BYTES
            nbytes = len(blob) + wire_page_bytes + hash_bytes
            self.delta.delta_ships += 1
            self.delta.chunks_deduped += int(uniq.size - missing.size)
            self.delta.full_page_bytes += full_page_bytes
            self.delta.wire_page_bytes += wire_page_bytes
            self.delta.hash_bytes += hash_bytes
            if dst_index is not None:
                dst_index.stats.wire_chunks_deduped += int(uniq.size - missing.size)
            TRACE.count("cluster.delta_ships")
            TRACE.count(
                "cluster.delta_bytes_saved",
                full_page_bytes - wire_page_bytes - hash_bytes,
            )
        delay = self.interconnect.transfer_ns(
            src.name, dst.name, nbytes, now=self.queue.now
        )
        self.stats.ships += 1
        self.stats.bytes_shipped += nbytes
        TRACE.count("cluster.replications")
        TRACE.count("cluster.replication_bytes", nbytes)
        done_at = self.queue.now + delay
        flight = _InFlight(done_at=done_at)
        if on_done is not None:
            flight.waiters.append(on_done)
        self._inflight[key] = flight
        mechanism = entry.mechanism
        plan = getattr(entry, "plan", None)

        def land() -> None:
            self._inflight.pop(key, None)
            if dst.failed:
                self.stats.failed += 1
                TRACE.count("cluster.replications_lost")
                for waiter in flight.waiters:
                    waiter(None)
                return
            checkpoint, install_ns = materialize(wire, dst, codec=self.codec)
            if TRACE.active():
                TRACE.add_span(
                    "cluster.replicate",
                    self.queue.now,
                    delay + install_ns,
                    function=function,
                    src=src.name,
                    dst=dst.name,
                    bytes=nbytes,
                )

            def install() -> None:
                dst_entry = dst.store.put(
                    self.user,
                    function,
                    checkpoint,
                    mechanism=mechanism,
                    now=self.queue.now,
                )
                dst_entry.plan = plan
                TRACE.count("cluster.replications_landed")
                for waiter in flight.waiters:
                    waiter(dst_entry)

            self.queue.schedule_after(
                int(install_ns), install, label=f"replica-install:{function}"
            )

        self.queue.schedule_after(delay, land, label=f"replica-land:{function}")
        return done_at


__all__ = [
    "DeltaStats",
    "HASH_WIRE_BYTES",
    "ReplicationError",
    "ReplicationStats",
    "Replicator",
    "encode_image",
    "materialize",
    "shipped_bytes",
    "wire_chunk_codes",
    "wire_image",
]
