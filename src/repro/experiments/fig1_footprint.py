"""Figure 1: breakdown of each function's memory footprint.

The paper spawns each function, invokes it 128 times with different inputs,
and classifies every footprint page as Init (used for initialization,
rarely accessed during execution), Read-only (only read during execution),
or Read/Write (written during execution).  We run the same protocol against
the simulated kernel and classify pages from the *observed* A/D bits —
not from the plan — so the figure reflects actual behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.experiments.common import claim, failed, make_pod
from repro.faas.functions import function_names
from repro.faas.workload import FunctionWorkload
from repro.os.mm.pte import PteFlags
from repro.parallel import SweepPoint
from repro.tiering.hotness import reset_access_bits


@dataclass
class Fig1Row:
    """One bar of Fig. 1."""

    function: str
    init_frac: float
    read_only_frac: float
    read_write_frac: float

    def __post_init__(self) -> None:
        total = self.init_frac + self.read_only_frac + self.read_write_frac
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"fractions sum to {total}")


def classify(task, invocations: int) -> tuple:
    """(init, ro, rw) page counts from observed A/D bits."""
    accessed = 0
    dirty = 0
    present = 0
    for _, leaf in task.mm.pagetable.leaves():
        p = (leaf.ptes & np.int64(int(PteFlags.PRESENT))) != 0
        a = p & ((leaf.ptes & np.int64(int(PteFlags.ACCESSED))) != 0)
        d = p & ((leaf.ptes & np.int64(int(PteFlags.DIRTY))) != 0)
        present += int(np.count_nonzero(p))
        accessed += int(np.count_nonzero(a))
        dirty += int(np.count_nonzero(d))
    rw = dirty
    ro = accessed - dirty
    init = present - accessed
    return init, ro, rw


@dataclass(frozen=True)
class Config:
    """Fig. 1 shape: which functions, and invocations per function."""

    functions: Optional[tuple] = None  # None = all of Table 1
    invocations: int = 128

    @classmethod
    def quick(cls) -> "Config":
        return cls(functions=("float", "json", "bfs", "bert"), invocations=32)


def points(config: Config) -> list:
    names = config.functions or function_names()
    return [
        SweepPoint.make("fig1", function=fn, invocations=config.invocations)
        for fn in names
    ]


def run_point(point: SweepPoint) -> Fig1Row:
    """Invoke one function ``invocations`` times on a fresh pod, classify."""
    fn = point.param("function")
    pod = make_pod()
    workload = FunctionWorkload(fn)
    instance = workload.build_instance(pod.source)
    # Clear the initialization writes, then watch steady-state behaviour.
    reset_access_bits(instance.task.mm.pagetable, clear_dirty=True)
    for _ in range(point.param("invocations")):
        workload.invoke(instance)
    init, ro, rw = classify(instance.task, point.param("invocations"))
    total = init + ro + rw
    return Fig1Row(
        function=fn,
        init_frac=init / total,
        read_only_frac=ro / total,
        read_write_frac=rw / total,
    )


def summarize(rows: list) -> list:
    return rows


def gates(rows: list, quick: bool) -> list:
    """Init dominates, then Read-only, and Read/Write is small (paper
    72.2 / 23 / 4.8%).  The Init and Read-only averages need all ten
    functions, so they are checked at the full shape only."""
    avg = averages(rows)
    claims = [
        (avg["init"] > avg["read_only"] > avg["read_write"],
         "average init > read-only > read/write does not hold"),
        claim("average read_write", avg["read_write"], ge=0.02, le=0.08),
    ]
    claims += [
        claim(f"{row.function} init+read_only", row.init_frac + row.read_only_frac, ge=0.85)
        for row in rows
    ]
    if not quick:
        claims += [
            claim("average init", avg["init"], ge=0.60, le=0.80),
            claim("average read_only", avg["read_only"], ge=0.15, le=0.35),
        ]
    return failed("fig1", claims)


def averages(rows: list) -> dict:
    """The paper's headline averages: 72.2% / 23% / 4.8%."""
    n = len(rows)
    return {
        "init": sum(r.init_frac for r in rows) / n,
        "read_only": sum(r.read_only_frac for r in rows) / n,
        "read_write": sum(r.read_write_frac for r in rows) / n,
    }


def format_rows(rows: list) -> str:
    lines = [f"{'function':<12} {'init%':>7} {'ro%':>7} {'rw%':>7}"]
    for row in rows:
        lines.append(
            f"{row.function:<12} {row.init_frac * 100:>7.1f} "
            f"{row.read_only_frac * 100:>7.1f} {row.read_write_frac * 100:>7.1f}"
        )
    avg = averages(rows)
    lines.append(
        f"{'average':<12} {avg['init'] * 100:>7.1f} "
        f"{avg['read_only'] * 100:>7.1f} {avg['read_write'] * 100:>7.1f}"
    )
    return "\n".join(lines)
