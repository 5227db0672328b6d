"""Page-fault taxonomy and calibrated cost model.

Calibration anchors from the paper (§4.2.1):

* a regular fault allocating an anonymous local page costs **< 1 us**;
* a CXL CoW fault costs **2.5 us** on average, of which **~1.3 us** is data
  movement and **~500 ns** TLB coherence (the remainder is handler work).

Costs compose the fixed handler overhead with the latency model's copy
costs, so the Fig. 9 latency sweep automatically changes fault costs too.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.cxl.latency import MemoryLatencyModel
from repro.os.mm.tlb import TlbModel
from repro.telemetry import TRACE


class FaultKind(enum.Enum):
    """Every fault flavour the mechanisms can take."""

    #: Zero-filled anonymous page from local DRAM.
    ANON_ZERO = "anon_zero"
    #: File-backed page present in the page cache (minor fault).
    FILE_MINOR = "file_minor"
    #: File-backed page needing backing-store I/O (major fault).
    FILE_MAJOR = "file_major"
    #: Copy-on-write where the source page is in local DRAM.
    COW_LOCAL = "cow_local"
    #: Copy-on-write migrating a page from CXL to local DRAM (CXLfork MoW).
    COW_CXL = "cow_cxl"
    #: Migrate-on-access copy from CXL to local DRAM (MoA tiering / TrEnv-like).
    MOA_COPY = "moa_copy"
    #: Mitosis-CXL "remote" fault: parent stores the page to CXL, child
    #: fetches it to local DRAM (§6.2's emulation of RDMA lazy copies).
    MITOSIS_REMOTE = "mitosis_remote"
    #: Hybrid tiering's cold-page path: map the checkpointed CXL frame in
    #: place (no copy), leaving the data on the CXL tier (§4.3).
    CXL_MAP = "cxl_map"
    #: Lazy copy of a whole checkpointed PTE leaf to local memory (§4.2.1).
    PTE_LEAF_COW = "pte_leaf_cow"
    #: Lazy copy of a checkpointed VMA tree leaf + file re-registration.
    VMA_LEAF_COW = "vma_leaf_cow"


#: Kinds whose resolution lands the page's bytes in local memory, so the
#: first user-level touch finds the data cache-warm.  Kept next to the
#: enum (the one place a new kind is added) and tallied incrementally by
#: :class:`repro.os.kernel.FaultStats` — the invocation engine reads the
#: running total instead of re-summing seven counter lookups per segment.
WARMING_KINDS = frozenset(
    {
        FaultKind.ANON_ZERO,
        FaultKind.FILE_MINOR,
        FaultKind.FILE_MAJOR,
        FaultKind.COW_LOCAL,
        FaultKind.COW_CXL,
        FaultKind.MOA_COPY,
        FaultKind.MITOSIS_REMOTE,
    }
)


@dataclass(frozen=True)
class FaultCostModel:
    """Fixed handler overheads; data movement comes from the latency model."""

    #: Entry/exit + VMA lookup + PTE install for the trivial fault.
    anon_base_ns: float = 300.0
    #: Page-cache lookup on top of the trivial path.
    file_minor_base_ns: float = 500.0
    #: Backing-store read (shared FS assumed warm-ish; this is the tail).
    file_major_io_ns: float = 30_000.0
    #: CoW path: anon rmap, refcount drop, copy orchestration.
    cow_base_ns: float = 700.0
    #: CXLfork's read-side CXL faults (MoA copies and hybrid's map-in-place)
    #: are batched fault-around style — one trap maps/copies several
    #: neighbouring checkpointed pages, amortizing handler + TLB work
    #: (part of §4.2.1's "Optimizing CXL Page Faults").  CoW and Mitosis'
    #: remote faults are not batchable (write-triggered / RDMA-emulated).
    cxl_read_fault_batch: int = 4
    #: Re-opening a file and registering FS callbacks for one VMA (§4.2).
    vma_file_register_ns: float = 4_000.0
    tlb: TlbModel = field(default_factory=TlbModel)

    def cost_ns(
        self,
        kind: FaultKind,
        latency: MemoryLatencyModel,
        *,
        file_vmas_to_register: int = 0,
    ) -> float:
        """Virtual-time cost of one fault of ``kind``."""
        cost = self._cost_ns(
            kind, latency, file_vmas_to_register=file_vmas_to_register
        )
        if TRACE.active():
            TRACE.observe(f"faultcost.{kind.value}_ns", cost)
        return cost

    def _cost_ns(
        self,
        kind: FaultKind,
        latency: MemoryLatencyModel,
        *,
        file_vmas_to_register: int = 0,
    ) -> float:
        if kind is FaultKind.ANON_ZERO:
            # zero-fill one local page
            return self.anon_base_ns + latency.page_copy_ns(src_cxl=False, dst_cxl=False)
        if kind is FaultKind.FILE_MINOR:
            return self.file_minor_base_ns + latency.access_ns(cxl=False)
        if kind is FaultKind.FILE_MAJOR:
            return (
                self.file_minor_base_ns
                + self.file_major_io_ns
                + latency.page_copy_ns(src_cxl=False, dst_cxl=False)
            )
        if kind is FaultKind.COW_LOCAL:
            return (
                self.cow_base_ns
                + latency.page_copy_ns(src_cxl=False, dst_cxl=False)
                + self.tlb.shootdown_ns
            )
        if kind is FaultKind.COW_CXL:
            return (
                self.cow_base_ns
                + latency.page_copy_ns(src_cxl=True, dst_cxl=False)
                + self.tlb.shootdown_ns
            )
        if kind is FaultKind.MOA_COPY:
            # Per-page cost with handler + TLB amortized over the batch.
            batch = max(1, self.cxl_read_fault_batch)
            return (
                latency.page_copy_ns(src_cxl=True, dst_cxl=False)
                + (self.cow_base_ns + self.tlb.shootdown_ns) / batch
            )
        if kind is FaultKind.MITOSIS_REMOTE:
            # One lazy copy of the page from the parent's shadow over the
            # CXL fabric (emulating Mitosis' one-sided RDMA read, §6.2).
            return (
                self.cow_base_ns
                + latency.page_copy_ns(src_cxl=True, dst_cxl=False)
                + self.tlb.shootdown_ns
            )
        if kind is FaultKind.CXL_MAP:
            # Read the checkpointed PTE from CXL and install it; no copy,
            # and batched like the MoA path.
            batch = max(1, self.cxl_read_fault_batch)
            return (self.anon_base_ns + latency.access_ns(cxl=True)) / batch
        if kind is FaultKind.PTE_LEAF_COW:
            # Copy one 4 KiB leaf from CXL plus remap of the PMD entry.
            return (
                self.cow_base_ns
                + latency.page_copy_ns(src_cxl=True, dst_cxl=False)
                + self.tlb.shootdown_ns
            )
        if kind is FaultKind.VMA_LEAF_COW:
            # Copy the leaf's VMA structs (small) + register file callbacks.
            return (
                self.cow_base_ns
                + latency.copy_ns(1024, src_cxl=True, dst_cxl=False)
                + file_vmas_to_register * self.vma_file_register_ns
            )
        raise ValueError(f"unknown fault kind: {kind}")


DEFAULT_FAULT_COSTS = FaultCostModel()

__all__ = ["FaultKind", "FaultCostModel", "DEFAULT_FAULT_COSTS", "WARMING_KINDS"]
