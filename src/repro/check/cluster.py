"""Cross-pod correctness checks for the federation layer.

The invariant the cluster adds on top of the per-pod ones: **frames never
cross fabrics**.  A checkpoint stored in a pod's object store must be
backed entirely by that pod's own CXL device (its heap, its data frames,
its file system) — replication *copies* images, it never aliases them, so
a pod failure can only ever lose state that lived on that pod.  A
checkpoint whose backing points at another pod's fabric would restore
from memory that does not exist locally: exactly the class of bug a
botched materialize would introduce and nothing inside one pod's audit
can see.

Composes with :mod:`repro.faults.audit`: each pod's owner-derived
refcount audit runs as-is, then the federation sweep checks ownership of
every stored image against the pod that stores it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.check import CHECK


@dataclass
class FederationAudit:
    """Result of one cross-pod sweep."""

    pods_audited: int = 0
    checkpoints_checked: int = 0
    #: Human-readable violation descriptions (empty == clean).
    violations: list = field(default_factory=list)
    #: Per-pod leak audits (name -> PodAudit) from the intra-pod checker.
    pod_audits: dict = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        return not self.violations and all(
            a.clean for a in self.pod_audits.values()
        )

    def describe(self) -> str:
        problems = self.violations[:5] + [
            f"pod {name}: {audit.describe()}"
            for name, audit in self.pod_audits.items()
            if not audit.clean
        ]
        return "federation audit: " + "; ".join(problems)


def audit_federation(router, *, include_pod_audits: bool = True) -> FederationAudit:
    """Audit frame ownership across all of a router's pods.

    For every object-store entry on every pod: the checkpoint's fabric
    (CXLfork) or file system (CRIU) must be the storing pod's own.  When
    ``include_pod_audits`` is set, each live pod's
    :meth:`~repro.porter.autoscaler.CxlPorter.audit_leaks` runs too, so
    one call covers both levels of the hierarchy.
    """
    report = FederationAudit()
    for pod in router.membership.pods():
        report.pods_audited += 1
        for entry in pod.porter.store.entries():
            report.checkpoints_checked += 1
            checkpoint = entry.checkpoint
            fabric = getattr(checkpoint, "fabric", None)
            if fabric is not None and fabric is not pod.fabric:
                report.violations.append(
                    f"pod {pod.name}: checkpoint cid={entry.cid} "
                    f"({entry.function}) backed by a foreign fabric"
                )
            cxlfs = getattr(checkpoint, "cxlfs", None)
            if cxlfs is not None and cxlfs is not pod.cxlfs:
                report.violations.append(
                    f"pod {pod.name}: checkpoint cid={entry.cid} "
                    f"({entry.function}) backed by a foreign file system"
                )
            heap = getattr(checkpoint, "heap", None)
            if heap is not None and getattr(heap, "fabric", None) is not None \
                    and heap.fabric is not pod.fabric:
                report.violations.append(
                    f"pod {pod.name}: checkpoint cid={entry.cid} "
                    f"({entry.function}) heap lives on a foreign fabric"
                )
        if include_pod_audits and not pod.failed:
            report.pod_audits[pod.name] = pod.porter.audit_leaks()
    CHECK.tally(
        "invariant_runs", "violations", len(report.violations), report, fatal=True
    )
    return report


__all__ = ["FederationAudit", "audit_federation"]
