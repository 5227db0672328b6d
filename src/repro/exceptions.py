"""Shared exception types for the scheduling layers.

Exhaustion happens at two distinct granularities once pods federate into a
cluster (:mod:`repro.cluster`):

* **pod-level** — every node inside one CXL pod has failed; the pod's
  scheduler cannot place anything.
* **cluster-level** — every *pod* in the federation is down; the global
  router has nowhere left to ship a request.

Keeping them distinct matters for recovery policy: a pod-level exhaustion
is survivable (the router re-routes to another pod), a federation-level
one is terminal for the request.
"""

from __future__ import annotations


class ExhaustionError(RuntimeError):
    """Base: a scheduling layer ran out of live placement targets."""


class PodExhaustedError(ExhaustionError):
    """Every node in one pod has failed; nothing can be placed there."""


class FederationExhaustedError(ExhaustionError):
    """Every pod in the federated cluster is down; routing is impossible."""


class PoisonError(RuntimeError):
    """A poisoned (corrupted) CXL/DRAM frame was detected before use.

    Raised by the RAS layer (:mod:`repro.ras`) whenever a checksum
    verification point — checkpoint seal, restore, replication encode, or
    a demand fault mapping checkpoint frames — touches a frame the pool
    has marked poisoned.  This is the memory-access analogue of the
    differential oracle's divergence report: the alternative is silently
    serving wrong bytes to a forked child.
    """

    def __init__(self, pool: str, frames, context: str = "") -> None:
        self.pool = str(pool)
        self.frames = [int(f) for f in frames]
        self.context = context
        where = f" during {context}" if context else ""
        sample = self.frames[:4]
        super().__init__(
            f"pool {self.pool!r}: {len(self.frames)} poisoned frame(s) "
            f"detected{where} (e.g. {sample})"
        )


__all__ = [
    "ExhaustionError",
    "PodExhaustedError",
    "FederationExhaustedError",
    "PoisonError",
]
