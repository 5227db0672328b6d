"""Four-level page tables with attachable, shareable leaves.

The x86-64 radix tree is modeled as:

* **leaves** — 512-entry numpy ``int64`` arrays of PTEs, each mapping 2 MiB
  of virtual address space.  Leaves are first-class objects because CXLfork
  checkpoints them into CXL memory and *attaches* them to restored processes
  (refcounted sharing), copying a leaf to local memory only when an OS-level
  update is attempted (PTE-leaf copy-on-write, §4.2.1).
* **upper levels** (PMD/PUD/PGD) — derived on demand from the set of leaf
  indices; restore only has to allocate/initialize these, which is what makes
  CXLfork's restore near constant-time.

Hardware-initiated A/D-bit updates go *through* shared leaves on purpose:
page walks on any node update the Accessed bits of checkpointed CXL-resident
leaves, which is exactly the signal hybrid tiering harvests (§4.3).
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from repro.os.mm.pte import PteFlags, ptes_flag_mask

#: PTEs per last-level table (one x86-64 page of 8-byte entries).
PTES_PER_LEAF = 512
LEAF_SHIFT = 9  # log2(PTES_PER_LEAF)
#: Fan-out of each upper level (PMD, PUD, PGD).
UPPER_FANOUT = 512


class PteLeaf:
    """One last-level page table (512 PTEs, mapping 2 MiB).

    ``cxl_resident`` marks leaves whose storage is part of a CXL checkpoint;
    ``refcount`` counts the page tables currently attaching the leaf.  A leaf
    with ``refcount > 1`` (or one that is checkpoint-owned) must be treated
    as immutable by OS-level updates — writers privatize it first.
    """

    __slots__ = ("ptes", "cxl_resident", "refcount", "backing_frame")

    def __init__(
        self,
        ptes: Optional[np.ndarray] = None,
        *,
        cxl_resident: bool = False,
        backing_frame: Optional[int] = None,
    ) -> None:
        if ptes is None:
            ptes = np.zeros(PTES_PER_LEAF, dtype=np.int64)
        elif ptes.shape != (PTES_PER_LEAF,):
            raise ValueError(f"leaf must hold {PTES_PER_LEAF} PTEs, got {ptes.shape}")
        self.ptes = ptes
        self.cxl_resident = cxl_resident
        self.refcount = 1
        self.backing_frame = backing_frame

    @property
    def shared(self) -> bool:
        """True if OS-level writes must privatize this leaf first."""
        return self.refcount > 1 or self.cxl_resident

    def present_mask(self) -> np.ndarray:
        return ptes_flag_mask(self.ptes, PteFlags.PRESENT)

    def present_count(self) -> int:
        return int(np.count_nonzero(self.present_mask()))

    def clone_local(self) -> "PteLeaf":
        """A private, local-DRAM copy of this leaf (PTE-leaf CoW)."""
        return PteLeaf(self.ptes.copy(), cxl_resident=False)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        where = "cxl" if self.cxl_resident else "local"
        return f"PteLeaf({where}, refs={self.refcount}, present={self.present_count()})"


class PageTable:
    """A process page table: a sparse map of leaf index -> :class:`PteLeaf`.

    Virtual page numbers (vpns) index the tree; ``vpn >> 9`` selects the
    leaf, ``vpn & 511`` the entry.  All bulk operations are expressed per
    leaf so they vectorize.
    """

    def __init__(self) -> None:
        self._leaves: dict[int, PteLeaf] = {}

    # -- structure ------------------------------------------------------------

    @property
    def leaf_count(self) -> int:
        return len(self._leaves)

    def leaf_indices(self) -> list[int]:
        return sorted(self._leaves)

    def leaves(self) -> Iterator[tuple[int, PteLeaf]]:
        return iter(sorted(self._leaves.items()))

    def has_leaf(self, leaf_index: int) -> bool:
        return leaf_index in self._leaves

    def leaf(self, leaf_index: int) -> PteLeaf:
        return self._leaves[leaf_index]

    def leaf_or_none(self, leaf_index: int) -> Optional[PteLeaf]:
        """The leaf for ``leaf_index`` if it exists, else None (no creation)."""
        return self._leaves.get(leaf_index)

    def leaves_at(self, leaf_indices) -> list[Optional[PteLeaf]]:
        """:meth:`leaf_or_none` for a batch of indices, in their order."""
        get = self._leaves.get
        return [get(i) for i in leaf_indices]

    def ensure_leaf(self, leaf_index: int) -> PteLeaf:
        """Get the leaf for ``leaf_index``, creating an empty local one."""
        existing = self._leaves.get(leaf_index)
        if existing is not None:
            return existing
        leaf = PteLeaf()
        self._leaves[leaf_index] = leaf
        return leaf

    def install_leaf(self, leaf_index: int, leaf: PteLeaf) -> None:
        """Install a freshly built private leaf (fork/restore construction)."""
        if leaf_index in self._leaves:
            raise ValueError(f"leaf {leaf_index} already present")
        self._leaves[leaf_index] = leaf

    def attach_leaf(self, leaf_index: int, leaf: PteLeaf) -> None:
        """Attach a (typically checkpointed) leaf by reference (§4.2.1)."""
        if leaf_index in self._leaves:
            raise ValueError(f"leaf {leaf_index} already present")
        leaf.refcount += 1
        self._leaves[leaf_index] = leaf

    def detach_leaf(self, leaf_index: int) -> PteLeaf:
        """Remove a leaf from this table, dropping our reference."""
        leaf = self._leaves.pop(leaf_index)
        leaf.refcount -= 1
        return leaf

    def privatize_leaf(self, leaf_index: int) -> tuple[PteLeaf, bool]:
        """Make the leaf at ``leaf_index`` privately writable.

        Returns ``(leaf, copied)`` where ``copied`` says whether a PTE-leaf
        CoW actually happened (callers charge the copy cost when it did).
        """
        leaf = self._leaves[leaf_index]
        if not leaf.shared:
            return leaf, False
        private = leaf.clone_local()
        leaf.refcount -= 1
        self._leaves[leaf_index] = private
        return private, True

    def upper_level_tables(self) -> int:
        """Number of upper-level tables (PMD+PUD+PGD) needed for this tree.

        This is what CXLfork's restore allocates and initializes; it is tiny
        (three tables per 1 GiB region plus the root), hence "constant time".
        """
        return self.upper_tables_for(self._leaves)

    @staticmethod
    def upper_tables_for(leaf_indices) -> int:
        """Upper-table count for an arbitrary leaf-index set.

        A pure function of the set, which is what lets the restore-plan
        cache precompute it from a checkpoint's leaf offsets: a restored
        task starts with an empty tree, so after attaching exactly the
        checkpointed leaves its :meth:`upper_level_tables` equals this.
        """
        if not leaf_indices:
            return 1  # the root PGD always exists
        pmds = {li >> LEAF_SHIFT for li in leaf_indices}
        puds = {pi >> LEAF_SHIFT for pi in pmds}
        return len(pmds) + len(puds) + 1

    # -- PTE access ------------------------------------------------------------

    def get_pte(self, vpn: int) -> int:
        """The PTE for ``vpn`` (0 if unmapped)."""
        leaf = self._leaves.get(vpn >> LEAF_SHIFT)
        if leaf is None:
            return 0
        return int(leaf.ptes[vpn & (PTES_PER_LEAF - 1)])

    def set_pte(self, vpn: int, pte: int) -> None:
        """Set one PTE; caller must have privatized a shared leaf first."""
        leaf = self.ensure_leaf(vpn >> LEAF_SHIFT)
        if leaf.shared:
            raise PermissionError(
                f"OS write to shared leaf {vpn >> LEAF_SHIFT}; privatize first"
            )
        leaf.ptes[vpn & (PTES_PER_LEAF - 1)] = pte

    # -- bulk range operations ----------------------------------------------------

    def iter_range(self, start_vpn: int, npages: int) -> Iterator[tuple[PteLeaf, int, slice, int]]:
        """Iterate ``(leaf_index_entry)`` chunks covering a vpn range.

        Yields ``(leaf, leaf_index, slice_within_leaf, vpn_of_slice_start)``
        for every *existing or created* leaf overlapping the range.  Leaves
        are created empty where missing; use :meth:`iter_existing_range` to
        skip holes.
        """
        vpn = start_vpn
        end = start_vpn + npages
        while vpn < end:
            leaf_index = vpn >> LEAF_SHIFT
            lo = vpn & (PTES_PER_LEAF - 1)
            hi = min(PTES_PER_LEAF, lo + (end - vpn))
            yield self.ensure_leaf(leaf_index), leaf_index, slice(lo, hi), vpn
            vpn += hi - lo

    def iter_existing_range(
        self, start_vpn: int, npages: int
    ) -> Iterator[tuple[PteLeaf, int, slice, int]]:
        """Like :meth:`iter_range` but skips leaves that do not exist."""
        vpn = start_vpn
        end = start_vpn + npages
        while vpn < end:
            leaf_index = vpn >> LEAF_SHIFT
            lo = vpn & (PTES_PER_LEAF - 1)
            hi = min(PTES_PER_LEAF, lo + (end - vpn))
            leaf = self._leaves.get(leaf_index)
            if leaf is not None:
                yield leaf, leaf_index, slice(lo, hi), vpn
            vpn += hi - lo

    def map_range(self, start_vpn: int, frames: np.ndarray, flags: int) -> None:
        """Map ``frames[i]`` at ``start_vpn + i`` with ``flags``.

        Used by fault handlers and checkpoint construction; requires the
        touched leaves to be privately writable.
        """
        from repro.os.mm.pte import make_ptes

        offset = 0
        for leaf, leaf_index, sl, _ in self.iter_range(start_vpn, len(frames)):
            if leaf.shared:
                raise PermissionError(
                    f"map_range into shared leaf {leaf_index}; privatize first"
                )
            count = sl.stop - sl.start
            leaf.ptes[sl] = make_ptes(frames[offset : offset + count], flags)
            offset += count

    def gather_ptes(self, start_vpn: int, npages: int) -> np.ndarray:
        """The PTE values for a vpn range (0 where unmapped)."""
        out = np.zeros(npages, dtype=np.int64)
        for leaf, _, sl, vpn in self.iter_existing_range(start_vpn, npages):
            lo = vpn - start_vpn
            out[lo : lo + (sl.stop - sl.start)] = leaf.ptes[sl]
        return out

    def count_present(self) -> int:
        return sum(leaf.present_count() for leaf in self._leaves.values())

    def count_flag(self, flags: int) -> int:
        """Number of present PTEs with all of ``flags`` set."""
        total = 0
        for leaf in self._leaves.values():
            mask = ptes_flag_mask(leaf.ptes, int(PteFlags.PRESENT) | int(flags))
            total += int(np.count_nonzero(mask))
        return total

    # -- accounting ------------------------------------------------------------

    def local_table_pages(self) -> int:
        """Pages of *local* memory consumed by this table's own structures.

        Attached CXL-resident leaves consume none; private leaves consume a
        page each; upper levels consume a page each.
        """
        private_leaves = sum(1 for l in self._leaves.values() if not l.cxl_resident)
        return private_leaves + self.upper_level_tables()

    def shared_leaf_count(self) -> int:
        return sum(1 for l in self._leaves.values() if l.cxl_resident)


__all__ = ["PageTable", "PteLeaf", "PTES_PER_LEAF", "LEAF_SHIFT", "UPPER_FANOUT"]
