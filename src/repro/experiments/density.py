"""Extension experiment: function density on a fixed local-memory budget.

§2.2's promise: deduplicating Init/Read-only state in shared CXL memory
"potentially increas[es] the number of function instances that can run on
a fixed local memory budget", and §7.2 credits CXLfork with ~2x throughput
at 25% memory for exactly this reason.

We measure it directly: on one node with a fixed DRAM budget, keep
restoring (and invoking) instances of a function until allocation fails,
per mechanism.  We also report the pod-wide deduplication: bytes of
checkpointed state shared on the device vs what N private copies would
have cost.

This budget experiment is :func:`run_budget`; the registered experiment is
the cross-checkpoint dedup sweep below.

**Cross-checkpoint dedup sweep**: the content-addressed
chunk store (:mod:`repro.dedup`) shares identical pages across *different
checkpoints* of one pod.  Each ``(function, dedup)`` grid point seals a
sequence of checkpoint generations the way a busy pod would — two
independent parents (cxlfork), then re-checkpoints of restored children
with both frame-resident mechanisms (cxlfork rule-1/2 sharing, criu-cxl
chunk adoption) — and measures device-resident growth vs the logical image
bytes, cumulative instances-per-GB of checkpoint storage, and replication
bytes-on-wire for a full ship vs the dedup delta protocol.  Points run on
the deterministic executor, so ``--jobs 8`` merges bit-identical to
``--jobs 1``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.tables import format_summary
from repro.cxl.allocator import OutOfMemoryError
from repro.experiments.common import make_pod, prepare_parent
from repro.parallel import SweepPoint
from repro.rfork.registry import get_mechanism
from repro.sim.units import GIB, MIB


@dataclass
class DensityRow:
    """How many live clones fit per mechanism."""

    mechanism: str
    function: str
    instances: int
    local_mb_per_instance: float
    cxl_shared_mb: float

    @property
    def dedup_saved_mb(self) -> float:
        """Local bytes avoided by sharing (vs each clone holding the
        shared state privately)."""
        return self.cxl_shared_mb * max(0, self.instances - 1)


def run_budget(
    function: str = "bert",
    *,
    dram_budget_bytes: int = 3 * GIB,
    mechanisms=("criu-cxl", "mitosis-cxl", "cxlfork"),
    max_instances: int = 256,
) -> list:
    """Per mechanism: restore and invoke clones of ``function`` on one
    node until its DRAM budget runs out."""
    rows: list[DensityRow] = []
    for mech_name in mechanisms:
        pod = make_pod(dram_bytes=dram_budget_bytes, cxl_bytes=32 * GIB)
        parent = prepare_parent(pod, function)
        mech = get_mechanism(mech_name, fabric=pod.fabric, cxlfs=pod.cxlfs)
        checkpoint, _ = mech.checkpoint(parent.instance.task)
        node = pod.target
        children = []
        try:
            while len(children) < max_instances:
                restored = mech.restore(checkpoint, node)
                child = parent.workload.placed_plan_for(
                    parent.instance, restored.task
                )
                parent.workload.invoke(child)
                children.append(child)
        except OutOfMemoryError:
            pass
        count = len(children)
        local_mb = (
            sum(c.task.mm.owned_local_pages for c in children)
            * 4096 / MIB / count
            if count
            else 0.0
        )
        shared_mb = (
            children[0].task.mm.cxl_mapped_pages() * 4096 / MIB if count else 0.0
        )
        rows.append(
            DensityRow(
                mechanism=mech_name,
                function=function,
                instances=count,
                local_mb_per_instance=local_mb,
                cxl_shared_mb=shared_mb,
            )
        )
    return rows


def summarize_budget(rows: list) -> dict:
    by_mech = {row.mechanism: row for row in rows}
    summary = {}
    criu = by_mech.get("criu-cxl")
    cxlfork = by_mech.get("cxlfork")
    mitosis = by_mech.get("mitosis-cxl")
    if criu and cxlfork and criu.instances:
        summary["density_cxlfork_vs_criu"] = cxlfork.instances / criu.instances
    if mitosis and cxlfork and mitosis.instances:
        summary["density_cxlfork_vs_mitosis"] = cxlfork.instances / mitosis.instances
    if cxlfork:
        summary["cxlfork_dedup_saved_mb"] = cxlfork.dedup_saved_mb
    return summary


def format_budget(rows: list) -> str:
    lines = [
        f"{'mechanism':<12} {'instances':>10} {'localMB/inst':>13} "
        f"{'sharedMB':>9} {'dedup saved MB':>15}"
    ]
    for row in rows:
        lines.append(
            f"{row.mechanism:<12} {row.instances:>10} "
            f"{row.local_mb_per_instance:>13.1f} {row.cxl_shared_mb:>9.1f} "
            f"{row.dedup_saved_mb:>15.0f}"
        )
    return "\n".join(lines)


@dataclass
class CrossDensityRow:
    """One checkpoint generation of a cross-checkpoint dedup point."""

    function: str
    dedup: bool
    step: int          # generation number on this pod, 0-based
    kind: str          # "parent" | "recheck-cxlfork" | "recheck-criu"
    mechanism: str
    logical_mb: float      # what a private copy of the image would cost
    resident_mb: float     # device bytes this image actually added
    shared_pages: int      # pages resolved to already-stored chunks
    zero_elided: int       # zero pages elided outright
    cum_resident_mb: float  # pod-wide checkpoint storage after this seal
    instances_per_gb: float  # checkpoints stored per GiB of device memory
    full_ship_mb: float    # replication: full wire image to a peer pod
    delta_ship_mb: float   # replication: dedup delta (missing chunks only)
    audit_clean: bool      # pod audit incl. chunk-index census after seal


class _DstPod:
    """Minimal replication target: enough of a PodHandle to materialize."""

    def __init__(self, pod, name: str) -> None:
        self.name = name
        self.fabric = pod.fabric
        self.cxlfs = pod.cxlfs
        self._image_serial = 0

    def next_image_id(self, comm: str) -> str:
        self._image_serial += 1
        return f"{comm}-replica-{self._image_serial}"


def _ship_costs(checkpoint, dst, codec) -> tuple:
    """(full_bytes, delta_bytes, replica) for shipping one image to ``dst``.

    Runs the real wire pipeline — encode, chunk-hash negotiation against
    the destination's index, materialize — so the landed replica seeds the
    destination for the next ship, exactly as ``Replicator.ship`` would.
    """
    import numpy as np

    from repro.cluster.replication import (
        HASH_WIRE_BYTES,
        materialize,
        shipped_bytes,
        wire_chunk_codes,
        wire_image,
    )
    from repro.sim.units import PAGE_SIZE

    blob = codec.encode(wire_image(checkpoint))
    wire = codec.decode(blob)
    full = shipped_bytes(checkpoint, blob)
    codes = wire_chunk_codes(wire)
    if codes.size:
        uniq = np.unique(codes)
        uniq = uniq[uniq != 0]
        index = getattr(dst.fabric, "_chunk_index", None)
        missing = index.missing_codes(codes) if index is not None else uniq
        delta = len(blob) + int(missing.size) * PAGE_SIZE \
            + int(uniq.size) * HASH_WIRE_BYTES
    else:
        delta = full
    replica, _ = materialize(wire, dst, codec=codec)
    return full, delta, replica


@dataclass(frozen=True)
class Config:
    """The ``(function, dedup)`` sweep's functions."""

    functions: tuple = ("json", "bert")

    @classmethod
    def quick(cls) -> "Config":
        return cls(functions=("float",))


def points(config: Config) -> list:
    """The ``(function, dedup)`` sweep grid."""
    return [
        SweepPoint.make("density-cross", function=fn, dedup=dedup)
        for fn in config.functions
        for dedup in (False, True)
    ]


def run_point(point: SweepPoint) -> list:
    """Worker: seal one pod's checkpoint sequence, measure dedup + wire.

    Generations, in order (the order a pod would grow them):

    0. parent A, cxlfork — seeds the chunk index;
    1. parent B, cxlfork — independent build, shares pristine file pages;
    2. re-checkpoint of a restored-and-invoked child, cxlfork — rule-1/2
       sharing of every page the child never wrote;
    3. re-checkpoint of another restored child, criu-cxl — chunk adoption
       by the serialize-based mechanism.

    Each generation is also shipped to a replication target, recording
    full-wire vs delta bytes; the landed replicas live on a separate
    federation, so the source pod's audit stays a pure checkpoint census.
    """
    from repro.check.invariants import check_pod
    from repro.dedup import DEDUP
    from repro.serial.codec import Codec

    function = point.param("function")
    dedup = point.param("dedup")
    with DEDUP.force(bool(dedup)):
        pod = make_pod(node_count=3, dram_bytes=4 * GIB, cxl_bytes=32 * GIB)
        dst_pod = make_pod(node_count=2, dram_bytes=2 * GIB, cxl_bytes=32 * GIB)
        dst = _DstPod(dst_pod, name=f"dst-{function}")
        codec = Codec()
        cxlfork = get_mechanism("cxlfork", fabric=pod.fabric, cxlfs=pod.cxlfs)
        criu = get_mechanism("criu-cxl", fabric=pod.fabric, cxlfs=pod.cxlfs)

        parent_a = prepare_parent(pod, function)
        parent_b = prepare_parent(pod, function, node=pod.nodes[1])

        def restored_child(checkpoint, node):
            restored = cxlfork.restore(checkpoint, node)
            child = parent_a.workload.placed_plan_for(
                parent_a.instance, restored.task
            )
            parent_a.workload.invoke(child)
            return child

        checkpoints: list = []
        replicas: list = []
        rows: list = []
        cum_resident = 0

        def seal(kind, mechanism, mech, task):
            nonlocal cum_resident
            ckpt, _ = mech.checkpoint(task)
            checkpoints.append(ckpt)
            resident = getattr(ckpt, "resident_cxl_bytes", ckpt.cxl_bytes)
            cum_resident += resident
            full, delta, replica = _ship_costs(ckpt, dst, codec)
            replicas.append(replica)
            audit = check_pod(
                pod.fabric, pod.nodes, cxlfs=pod.cxlfs, checkpoints=checkpoints
            )
            dst_audit = check_pod(
                dst_pod.fabric,
                dst_pod.nodes,
                cxlfs=dst_pod.cxlfs,
                checkpoints=replicas,
            )
            rows.append(
                CrossDensityRow(
                    function=function,
                    dedup=bool(dedup),
                    step=len(rows),
                    kind=kind,
                    mechanism=mechanism,
                    logical_mb=ckpt.cxl_bytes / MIB,
                    resident_mb=resident / MIB,
                    shared_pages=int(
                        getattr(ckpt, "shared_chunk_pages", 0)
                        or getattr(ckpt, "dedup_pages", 0)
                    ),
                    zero_elided=int(getattr(ckpt, "zero_elided_pages", 0)),
                    cum_resident_mb=cum_resident / MIB,
                    instances_per_gb=len(checkpoints) * GIB / cum_resident,
                    full_ship_mb=full / MIB,
                    delta_ship_mb=delta / MIB,
                    audit_clean=audit.clean and dst_audit.clean,
                )
            )
            return ckpt

        ck_a = seal("parent", "cxlfork", cxlfork, parent_a.instance.task)
        seal("parent", "cxlfork", cxlfork, parent_b.instance.task)
        child1 = restored_child(ck_a, pod.nodes[2])
        seal("recheck-cxlfork", "cxlfork", cxlfork, child1.task)
        child2 = restored_child(ck_a, pod.nodes[2])
        seal("recheck-criu", "criu-cxl", criu, child2.task)
        return rows


def summarize(rows: list) -> dict:
    """The generations in point order, plus the dedup-on vs -off headline
    (recorded in the bench digest)."""
    rows = [row for point_rows in rows for row in point_rows]
    return {"rows": rows, "summary": headline(rows)}


def gates(result: dict) -> list:
    """Every pod audits clean; dedup raises density and cuts wire bytes."""
    rows, summary = result["rows"], result["summary"]
    failures = []
    dirty = sum(1 for r in rows if not r.audit_clean)
    if dirty:
        failures.append(f"density: {dirty} generation(s) failed the pod audit")
    for fn in sorted({r.function for r in rows}):
        gain = summary[f"{fn}_density_gain"]
        if gain <= 1.0:
            failures.append(
                "density: dedup did not improve instances-per-GB "
                f"for {fn} (gain {gain:.3f}x)"
            )
        if summary[f"{fn}_wire_delta_mb"] >= summary[f"{fn}_wire_full_mb"]:
            failures.append(
                f"density: delta replication did not save wire bytes for {fn}"
            )
    return failures


def headline(rows: list) -> dict:
    """Dedup-on vs dedup-off, per function: density and wire savings."""
    summary: dict = {}
    functions = sorted({r.function for r in rows})
    for fn in functions:
        on = [r for r in rows if r.function == fn and r.dedup]
        off = [r for r in rows if r.function == fn and not r.dedup]
        if not on or not off:
            continue
        summary[f"{fn}_instances_per_gb_dedup"] = on[-1].instances_per_gb
        summary[f"{fn}_instances_per_gb_baseline"] = off[-1].instances_per_gb
        summary[f"{fn}_density_gain"] = (
            on[-1].instances_per_gb / off[-1].instances_per_gb
        )
        full = sum(r.full_ship_mb for r in on)
        delta = sum(r.delta_ship_mb for r in on)
        summary[f"{fn}_wire_full_mb"] = full
        summary[f"{fn}_wire_delta_mb"] = delta
        summary[f"{fn}_wire_saved_frac"] = 1.0 - delta / full if full else 0.0
    return summary


def format_rows(result: dict) -> str:
    lines = [
        f"{'function':<10} {'dedup':<6} {'step':>4} {'kind':<16} "
        f"{'logicalMB':>10} {'residentMB':>11} {'shared':>8} "
        f"{'inst/GB':>8} {'fullMB':>8} {'deltaMB':>8} {'audit':>6}"
    ]
    for row in result["rows"]:
        lines.append(
            f"{row.function:<10} {str(row.dedup):<6} {row.step:>4} "
            f"{row.kind:<16} {row.logical_mb:>10.1f} {row.resident_mb:>11.1f} "
            f"{row.shared_pages:>8} {row.instances_per_gb:>8.2f} "
            f"{row.full_ship_mb:>8.1f} {row.delta_ship_mb:>8.1f} "
            f"{'ok' if row.audit_clean else 'LEAK':>6}"
        )
    return "\n".join(lines) + "\n\n" + format_summary(result["summary"])
