"""Address-space plans: from a :class:`FunctionSpec` to concrete segments.

A function instance's memory is laid out as:

* **library mappings** — ``lib_vma_count`` private file-backed VMAs (the
  Python runtime and its dependencies; §4.2.1 notes serverless functions
  carry *hundreds* of these).  They are initialization state: rarely touched
  during invocations.
* **anonymous init data** — parsed configs, JIT artifacts, one-time setup.
* **read-only data** — model weights, graphs, lookup tables read by every
  invocation.
* **read/write data** — buffers written during invocations.

The plan records each segment's role and per-invocation touch fraction;
virtual page numbers are assigned when the plan is *placed* into a task, and
are identical for every clone of that instance (checkpoints preserve the
address-space layout).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Optional

from repro.faas.functions import FunctionSpec


class SegmentRole(enum.Enum):
    """Fig. 1's footprint categories."""

    INIT = "init"
    READ_ONLY = "read_only"
    READ_WRITE = "read_write"


class SegmentKind(enum.Enum):
    FILE = "file"
    ANON = "anon"


@dataclass(frozen=True)
class Segment:
    """One planned (and possibly placed) memory segment."""

    label: str
    role: SegmentRole
    kind: SegmentKind
    npages: int
    touch_frac: float
    path: Optional[str] = None
    #: Assigned when the plan is placed into an address space.
    start_vpn: Optional[int] = None

    def __post_init__(self) -> None:
        if self.npages <= 0:
            raise ValueError(f"segment {self.label!r} needs pages: {self.npages}")
        if not 0.0 <= self.touch_frac <= 1.0:
            raise ValueError(f"segment {self.label!r}: bad touch_frac {self.touch_frac}")
        if self.kind is SegmentKind.FILE and not self.path:
            raise ValueError(f"file segment {self.label!r} needs a path")

    @property
    def placed(self) -> bool:
        return self.start_vpn is not None

    def at(self, start_vpn: int) -> "Segment":
        return replace(self, start_vpn=start_vpn)


@dataclass(frozen=True)
class MemoryPlan:
    """The full segment list for one function."""

    spec: FunctionSpec
    segments: tuple


def build_plan(spec: FunctionSpec) -> MemoryPlan:
    """Construct the (unplaced) segment plan for a function."""
    total_pages = spec.footprint_pages
    init_pages = int(round(total_pages * spec.init_frac))
    rw_pages = max(1, int(round(total_pages * spec.rw_frac)))
    ro_pages = max(1, total_pages - init_pages - rw_pages)

    lib_pages_total = int(round(init_pages * spec.file_frac_of_init))
    anon_init_pages = max(1, init_pages - lib_pages_total)

    segments: list[Segment] = []
    if lib_pages_total > 0 and spec.lib_vma_count > 0:
        per_lib = max(1, lib_pages_total // spec.lib_vma_count)
        remaining = lib_pages_total
        index = 0
        while remaining > 0:
            npages = min(per_lib, remaining)
            # The last mapping absorbs the remainder so totals are exact.
            if remaining - npages < per_lib:
                npages = remaining
            segments.append(
                Segment(
                    label=f"lib{index}",
                    role=SegmentRole.INIT,
                    kind=SegmentKind.FILE,
                    npages=npages,
                    touch_frac=spec.init_touch_frac,
                    path=f"/opt/runtime/{spec.name}/lib{index}.so",
                )
            )
            remaining -= npages
            index += 1
    segments.append(
        Segment(
            label="init_data",
            role=SegmentRole.INIT,
            kind=SegmentKind.ANON,
            npages=anon_init_pages,
            touch_frac=spec.init_touch_frac,
        )
    )
    segments.append(
        Segment(
            label="ro_data",
            role=SegmentRole.READ_ONLY,
            kind=SegmentKind.ANON,
            npages=ro_pages,
            touch_frac=spec.ro_touch_frac,
        )
    )
    segments.append(
        Segment(
            label="rw_data",
            role=SegmentRole.READ_WRITE,
            kind=SegmentKind.ANON,
            npages=rw_pages,
            touch_frac=spec.rw_touch_frac,
        )
    )
    return MemoryPlan(spec=spec, segments=tuple(segments))


__all__ = ["Segment", "SegmentKind", "SegmentRole", "MemoryPlan", "build_plan"]
