"""Extension experiment: write-heavy workloads (§8's discussion, measured).

"CXLfork mainly targets serverless functions, which tend to be dominated by
read-heavy access patterns.  Nonetheless, even write-heavy workloads
benefit from CXLfork's instant process cloning …  However, in this case,
CXLfork's memory savings are blunted, as eventually much of the workload's
memory will be lazily copied to the local memory of the remote node via
Copy-on-Write faults."

We sweep a synthetic function's write share from read-mostly to
write-heavy and measure, per point, CXLfork's restore latency (should stay
flat — instant cloning is write-share-independent) and the child's local
memory as a fraction of the footprint (should climb towards 1 — savings
blunted).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.tables import format_summary
from repro.experiments.common import child_local_bytes, make_pod
from repro.faas.functions import FunctionSpec
from repro.faas.workload import FunctionWorkload
from repro.parallel import SweepPoint
from repro.rfork.cxlfork import CxlFork
from repro.sim.units import MS

#: Swept share of the footprint written per invocation.
WRITE_SHARES = (0.05, 0.2, 0.4, 0.6)


def _write_heavy_spec(write_share: float) -> FunctionSpec:
    """A 128 MB function whose read/write split is parameterized."""
    remaining = 1.0 - write_share
    return FunctionSpec(
        name=f"wh{int(write_share * 100)}",
        description=f"synthetic, {write_share:.0%} written per invocation",
        footprint_mb=128,
        init_frac=round(remaining * 0.7, 6),
        ro_frac=round(remaining * 0.3, 6),
        rw_frac=write_share,
        file_frac_of_init=0.3,
        state_init_ms=300.0,
        compute_ms=20.0,
        reaccess_per_page=3.0,
        init_touch_frac=0.05,
        ro_touch_frac=0.7,
        rw_touch_frac=0.9,
        lib_vma_count=150,
        fd_count=16,
    )


@dataclass
class WriteHeavyRow:
    """One write-share point."""

    write_share: float
    restore_ms: float
    cold_total_ms: float
    child_local_frac: float  # of the footprint
    shared_frac: float


@dataclass(frozen=True)
class Config:
    """The swept write shares."""

    write_shares: tuple = WRITE_SHARES

    @classmethod
    def quick(cls) -> "Config":
        return cls(write_shares=(0.05, 0.6))


def points(config: Config) -> list:
    return [
        SweepPoint.make("write-heavy", write_share=share)
        for share in config.write_shares
    ]


def run_point(point: SweepPoint) -> WriteHeavyRow:
    """CXLfork one synthetic function of the given write share, fresh pod."""
    share = point.param("write_share")
    spec = _write_heavy_spec(share)
    pod = make_pod()
    workload = FunctionWorkload(spec)
    parent = workload.build_instance(pod.source)
    workload.season(parent)
    mech = CxlFork()
    checkpoint, _ = mech.checkpoint(parent.task)
    restored = mech.restore(checkpoint, pod.target)
    child = workload.placed_plan_for(parent, restored.task)
    invocation = workload.invoke(child)
    return WriteHeavyRow(
        write_share=share,
        restore_ms=restored.metrics.latency_ns / MS,
        cold_total_ms=(restored.metrics.latency_ns + invocation.wall_ns) / MS,
        child_local_frac=child_local_bytes(child) / spec.footprint_bytes,
        shared_frac=child.task.mm.cxl_mapped_pages() * 4096 / spec.footprint_bytes,
    )


def summarize(rows: list) -> list:
    return rows


def gates(rows: list) -> list:
    return []


def headline(rows: list) -> dict:
    ordered = sorted(rows, key=lambda r: r.write_share)
    return {
        # Instant cloning is write-share independent:
        "restore_spread": max(r.restore_ms for r in ordered)
        / max(min(r.restore_ms for r in ordered), 1e-9),
        # Memory savings blunt as writes grow:
        "local_frac_read_mostly": ordered[0].child_local_frac,
        "local_frac_write_heavy": ordered[-1].child_local_frac,
        "savings_monotonically_blunted": all(
            a.child_local_frac <= b.child_local_frac + 1e-9
            for a, b in zip(ordered, ordered[1:])
        ),
    }


def format_rows(rows: list) -> str:
    lines = [
        f"{'written/invocation':>19} {'restore(ms)':>12} {'cold(ms)':>9} "
        f"{'local frac':>11} {'shared frac':>12}"
    ]
    for row in rows:
        lines.append(
            f"{row.write_share:>18.0%} {row.restore_ms:>12.2f} "
            f"{row.cold_total_ms:>9.1f} {row.child_local_frac:>11.2f} "
            f"{row.shared_frac:>12.2f}"
        )
    return "\n".join(lines) + "\n\n" + format_summary(headline(rows))
