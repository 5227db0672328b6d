"""Virtual memory areas and the chunked VMA tree.

Linux keeps VMAs in a maple tree; what matters for CXLfork is that the tree
has *leaf nodes holding several VMAs* which can be checkpointed into CXL
memory and attached by restored processes, with lazy copy-to-local on the
first modification (§4.2.1).  We model exactly that: a sorted sequence of
:class:`VmaLeaf` chunks, each holding up to ``VMAS_PER_LEAF`` VMAs, shareable
by reference with privatize-on-write.

Serverless processes have *hundreds* of VMAs (library mappings of Python
runtimes), which is why reconstructing this tree is a measurable cost for
CRIU/Mitosis and why attaching it is a win for CXLfork.

Lookups are indexed: the tree keeps a cached sorted array of leaf start
vpns and each leaf keeps a cached array of VMA start vpns, both invalidated
on mutation, so ``find``/``find_leaf`` are pure bisects with no per-call
list rebuilding, and ``insert`` checks overlap against only the two
neighbouring VMAs instead of scanning the whole tree.
"""

from __future__ import annotations

import bisect
import enum
from dataclasses import dataclass
from typing import Iterator, Optional

#: VMAs per checkpointable tree leaf.  Linux maple-tree nodes hold 10-16
#: entries; 16 keeps the arithmetic simple.
VMAS_PER_LEAF = 16


class VmaKind(enum.Enum):
    """What backs a mapping."""

    ANON = "anon"
    FILE_PRIVATE = "file_private"
    FILE_SHARED = "file_shared"  # unsupported by checkpointing, like the paper


class VmaPerms(enum.IntFlag):
    NONE = 0
    READ = 1
    WRITE = 2
    EXEC = 4


@dataclass(frozen=True)
class Vma:
    """One virtual memory area.  Immutable: updates replace the object."""

    start_vpn: int
    npages: int
    perms: VmaPerms
    kind: VmaKind = VmaKind.ANON
    path: Optional[str] = None
    file_offset_pages: int = 0
    label: str = ""
    #: For restored processes: whether the file backing has been re-opened
    #: and its callbacks registered with the local FS layer.  Attached
    #: checkpointed VMAs start out unregistered; registration happens lazily
    #: on the first fault (§4.2).
    file_registered: bool = True

    def __post_init__(self) -> None:
        if self.npages <= 0:
            raise ValueError(f"VMA must span at least one page: {self.npages}")
        if self.kind in (VmaKind.FILE_PRIVATE, VmaKind.FILE_SHARED) and not self.path:
            raise ValueError("file-backed VMA requires a path")

    @property
    def end_vpn(self) -> int:
        return self.start_vpn + self.npages

    def contains(self, vpn: int) -> bool:
        return self.start_vpn <= vpn < self.end_vpn

    def overlaps(self, start_vpn: int, npages: int) -> bool:
        return self.start_vpn < start_vpn + npages and start_vpn < self.end_vpn

    def is_file_backed(self) -> bool:
        return self.kind in (VmaKind.FILE_PRIVATE, VmaKind.FILE_SHARED)


class VmaLeaf:
    """A chunk of consecutive VMAs; the checkpointable/attachable unit."""

    __slots__ = ("vmas", "cxl_resident", "refcount", "backing_frame", "_starts")

    def __init__(
        self,
        vmas: Optional[list] = None,
        *,
        cxl_resident: bool = False,
        backing_frame: Optional[int] = None,
    ) -> None:
        self.vmas: list[Vma] = list(vmas or [])
        self.cxl_resident = cxl_resident
        self.refcount = 1
        self.backing_frame = backing_frame
        #: Cached ``[v.start_vpn for v in vmas]``; None when stale.
        self._starts: Optional[list[int]] = None

    @property
    def shared(self) -> bool:
        return self.refcount > 1 or self.cxl_resident

    @property
    def start_vpn(self) -> int:
        if not self.vmas:
            raise ValueError("empty VMA leaf has no start")
        return self.vmas[0].start_vpn

    @property
    def end_vpn(self) -> int:
        if not self.vmas:
            raise ValueError("empty VMA leaf has no end")
        return self.vmas[-1].end_vpn

    def starts(self) -> list[int]:
        """Sorted VMA start vpns (cached; rebuilt after mutation)."""
        starts = self._starts
        if starts is None or len(starts) != len(self.vmas):
            starts = self._starts = [v.start_vpn for v in self.vmas]
        return starts

    def invalidate(self) -> None:
        """Drop the cached start index after an in-place mutation."""
        self._starts = None

    def locate(self, vpn: int) -> Optional[Vma]:
        """The VMA in this leaf containing ``vpn``, or None."""
        i = bisect.bisect_right(self.starts(), vpn) - 1
        if i >= 0 and self.vmas[i].contains(vpn):
            return self.vmas[i]
        return None

    def clone_local(self) -> "VmaLeaf":
        return VmaLeaf(list(self.vmas), cxl_resident=False)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        where = "cxl" if self.cxl_resident else "local"
        return f"VmaLeaf({where}, refs={self.refcount}, n={len(self.vmas)})"


class VmaTree:
    """Sorted, chunked VMA container with attach/privatize semantics."""

    def __init__(self) -> None:
        self._leaves: list[VmaLeaf] = []
        #: Cached ``[leaf.start_vpn for leaf in _leaves]``; None when stale.
        self._keys: Optional[list[int]] = None
        #: Cached total VMA count; -1 when stale.
        self._size: int = 0

    # -- index maintenance ----------------------------------------------------

    def _leaf_keys(self) -> list[int]:
        keys = self._keys
        if keys is None:
            keys = self._keys = [leaf.start_vpn for leaf in self._leaves]
        return keys

    def _invalidate(self) -> None:
        self._keys = None
        self._size = -1

    # -- queries ------------------------------------------------------------

    def __len__(self) -> int:
        if self._size < 0:
            self._size = sum(len(leaf.vmas) for leaf in self._leaves)
        return self._size

    def __iter__(self) -> Iterator[Vma]:
        for leaf in self._leaves:
            yield from leaf.vmas

    @property
    def leaf_count(self) -> int:
        return len(self._leaves)

    def leaves(self) -> list[VmaLeaf]:
        return list(self._leaves)

    def total_pages(self) -> int:
        return sum(vma.npages for vma in self)

    def _leaf_pos_for(self, vpn: int) -> int:
        """Index of the leaf that could contain ``vpn``."""
        pos = bisect.bisect_right(self._leaf_keys(), vpn) - 1
        return max(pos, 0)

    def find(self, vpn: int) -> Optional[Vma]:
        """The VMA containing ``vpn``, or None."""
        if not self._leaves:
            return None
        pos = self._leaf_pos_for(vpn)
        for leaf in self._leaves[pos : pos + 2]:
            hit = leaf.locate(vpn)
            if hit is not None:
                return hit
        return None

    def find_leaf(self, vpn: int) -> Optional[tuple[int, VmaLeaf]]:
        """``(position, leaf)`` of the leaf whose VMA contains ``vpn``."""
        if not self._leaves:
            return None
        pos = self._leaf_pos_for(vpn)
        for offset, leaf in enumerate(self._leaves[pos : pos + 2]):
            if leaf.locate(vpn) is not None:
                return pos + offset, leaf
        return None

    def _neighbors(self, start_vpn: int) -> tuple[Optional[Vma], Optional[Vma]]:
        """The VMAs immediately at-or-before and after ``start_vpn``."""
        if not self._leaves:
            return None, None
        pos = self._leaf_pos_for(start_vpn)
        leaf = self._leaves[pos]
        i = bisect.bisect_right(leaf.starts(), start_vpn) - 1
        pred = leaf.vmas[i] if i >= 0 else None
        if i + 1 < len(leaf.vmas):
            succ = leaf.vmas[i + 1]
        elif pos + 1 < len(self._leaves):
            succ = self._leaves[pos + 1].vmas[0]
        else:
            succ = None
        return pred, succ

    # -- mutation -------------------------------------------------------------

    def insert(self, vma: Vma) -> None:
        """Insert a non-overlapping VMA, splitting full leaves as needed."""
        # Overlap can only come from the predecessor (largest start <= new
        # start) or the successor (smallest start > new start); checking the
        # two neighbours replaces the full-tree scan.
        pred, succ = self._neighbors(vma.start_vpn)
        for existing in (pred, succ):
            if existing is not None and existing.overlaps(vma.start_vpn, vma.npages):
                raise ValueError(
                    f"VMA [{vma.start_vpn}, {vma.end_vpn}) overlaps "
                    f"[{existing.start_vpn}, {existing.end_vpn})"
                )
        if not self._leaves:
            self._leaves.append(VmaLeaf([vma]))
            self._invalidate()
            return
        pos = self._leaf_pos_for(vma.start_vpn)
        leaf = self._leaves[pos]
        if leaf.shared:
            raise PermissionError("insert into shared VMA leaf; privatize first")
        leaf.vmas.insert(bisect.bisect_left(leaf.starts(), vma.start_vpn), vma)
        leaf.invalidate()
        if len(leaf.vmas) > VMAS_PER_LEAF:
            # The leaf was verified private above; the split must not run on
            # a shared leaf because both halves inherit private (refcount=1,
            # local) bookkeeping.
            if leaf.shared:  # pragma: no cover - guarded by the check above
                raise PermissionError("split of shared VMA leaf; privatize first")
            half = len(leaf.vmas) // 2
            right = VmaLeaf(leaf.vmas[half:], cxl_resident=leaf.cxl_resident)
            del leaf.vmas[half:]
            leaf.invalidate()
            self._leaves.insert(pos + 1, right)
        self._invalidate()

    def privatize_leaf(self, pos: int) -> tuple[VmaLeaf, bool]:
        """Make leaf at ``pos`` privately writable; returns (leaf, copied)."""
        leaf = self._leaves[pos]
        if not leaf.shared:
            return leaf, False
        private = leaf.clone_local()
        leaf.refcount -= 1
        self._leaves[pos] = private
        # Leaf start key and VMA count are unchanged by privatization, so
        # the cached indexes stay valid.
        return private, True

    def replace_vma(self, pos: int, old: Vma, new: Vma) -> None:
        """Swap ``old`` for ``new`` inside the (private) leaf at ``pos``."""
        leaf = self._leaves[pos]
        if leaf.shared:
            raise PermissionError("replace in shared VMA leaf; privatize first")
        index = leaf.vmas.index(old)
        leaf.vmas[index] = new
        leaf.invalidate()
        if index == 0:
            self._keys = None  # leaf start key may have moved

    # -- attach (restore path) ----------------------------------------------------

    def attach_leaf(self, leaf: VmaLeaf) -> None:
        """Attach a checkpointed leaf by reference, keeping order."""
        if not leaf.vmas:
            raise ValueError("cannot attach an empty VMA leaf")
        leaf.refcount += 1
        self._leaves.insert(
            bisect.bisect_left(self._leaf_keys(), leaf.start_vpn), leaf
        )
        self._invalidate()

    def detach_all(self) -> None:
        """Drop references to every leaf (address-space teardown)."""
        for leaf in self._leaves:
            leaf.refcount -= 1
        self._leaves.clear()
        self._invalidate()

    # -- accounting ------------------------------------------------------------

    def local_leaf_count(self) -> int:
        return sum(1 for leaf in self._leaves if not leaf.cxl_resident)

    def shared_leaf_count(self) -> int:
        return sum(1 for leaf in self._leaves if leaf.cxl_resident)

    # -- invariants ------------------------------------------------------------

    def check_invariants(self) -> None:
        """Assert structural invariants (used by the property tests).

        * no empty leaves;
        * VMA starts strictly increase across the whole tree (so leaf keys
          strictly increase too) and VMAs never overlap their successor;
        * the cached size equals the sum of leaf sizes;
        * every leaf's cached start index matches its VMAs;
        * refcounts are positive.
        """
        prev_end = None
        total = 0
        prev_key = None
        for leaf in self._leaves:
            assert leaf.vmas, "empty VmaLeaf in tree"
            assert leaf.refcount >= 1, "non-positive VmaLeaf refcount"
            key = leaf.start_vpn
            if prev_key is not None:
                assert key > prev_key, "leaf keys not strictly sorted"
            prev_key = key
            assert leaf.starts() == [v.start_vpn for v in leaf.vmas], (
                "stale VmaLeaf start index"
            )
            for vma in leaf.vmas:
                if prev_end is not None:
                    assert vma.start_vpn >= prev_end, "overlapping/unsorted VMAs"
                prev_end = vma.end_vpn
                total += 1
        assert total == len(self), "VmaTree size cache out of sync"
        if self._keys is not None:
            assert self._keys == [leaf.start_vpn for leaf in self._leaves], (
                "stale VmaTree leaf-key index"
            )


__all__ = ["Vma", "VmaKind", "VmaPerms", "VmaLeaf", "VmaTree", "VMAS_PER_LEAF"]
