"""Pointer rebasing (§4.1 step 7).

After CXLfork copies the private OS structures into CXL memory, they still
reference each other by machine-local identity (in a kernel: virtual
addresses; here: Python object references).  The *rebase* pass walks the
structures and rewrites every internal reference into a machine-independent
**offset on the CXL device**, so that any other OS instance can remap the
region and dereference the same graph.

We make this concrete instead of hand-waving it:

* :class:`CxlOffset` is the rebased pointer type — an integer offset into
  a checkpoint's :class:`~repro.serial.blob.CxlHeap`.
* :class:`Rebaser` interns objects into the heap and rewrites reference
  fields; dangling references to objects *outside* the checkpoint (i.e.
  state still coupled to the source OS instance) are a :class:`RebaseError`,
  which is exactly the bug class the paper's design has to avoid.
* ``resolve()`` on the restoring side turns offsets back into objects by
  heap lookup — never by touching the source node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.serial.blob import CxlHeap


@dataclass(frozen=True)
class CxlOffset:
    """A rebased pointer: a byte offset within a checkpoint heap."""

    value: int

    def __post_init__(self) -> None:
        if self.value <= 0:
            raise ValueError(f"offsets are positive (0 is NULL): {self.value}")

    def __int__(self) -> int:
        return self.value


class RebaseError(RuntimeError):
    """A checkpointed structure still references non-checkpointed state."""


class Rebaser:
    """Interns an object graph into a heap and rewrites references."""

    def __init__(self, heap: CxlHeap) -> None:
        self.heap = heap
        self._offsets_by_id: dict[int, int] = {}
        self._pinned: dict[int, Any] = {}  # keep interned objects alive

    def intern(self, obj: Any, nbytes: int) -> CxlOffset:
        """Copy ``obj`` into the heap (idempotent per object identity)."""
        key = id(obj)
        existing = self._offsets_by_id.get(key)
        if existing is not None:
            return CxlOffset(existing)
        offset = self.heap.store(obj, nbytes)
        self._offsets_by_id[key] = offset
        self._pinned[key] = obj
        return CxlOffset(offset)

    def is_interned(self, obj: Any) -> bool:
        return id(obj) in self._offsets_by_id

    def resolve(self, ref: "CxlOffset | int") -> Any:
        """Dereference a rebased pointer (restore-side operation)."""
        return self.heap.deref(int(ref))

    def verify_closed(self, roots: list, child_refs: Callable[[Any], list]) -> None:
        """Check the interned graph is closed under ``child_refs``.

        ``child_refs(obj)`` returns the objects ``obj`` references.  Every
        reachable object must be interned; otherwise the checkpoint would
        dangle into the source OS instance.
        """
        seen: set[int] = set()
        stack = list(roots)
        while stack:
            obj = stack.pop()
            if id(obj) in seen:
                continue
            seen.add(id(obj))
            if not self.is_interned(obj):
                raise RebaseError(
                    f"{type(obj).__name__} reachable from checkpoint roots "
                    "but not interned"
                )
            stack.extend(child_refs(obj))


__all__ = ["CxlOffset", "Rebaser", "RebaseError"]
