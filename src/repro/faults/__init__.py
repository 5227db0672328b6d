"""Deterministic fault injection and recovery policies.

The paper's §3.1 headline — checkpoints on shared CXL memory survive the
death of the node that wrote them — is only worth reproducing if the
reproduction can actually kill nodes at adversarial moments.  This package
injects faults *deterministically*: every fault site is driven by a named
:class:`~repro.sim.rng.RngStream` and scheduled on virtual clocks, so a
given seed replays bit-identically.

Fault model (see docs/RESILIENCE.md):

* **Node crash** — :meth:`FaultInjector.crash_at` arms a clock alarm that
  fires `node.fail()` at an exact virtual nanosecond, including in the
  middle of a synchronous checkpoint or restore.
* **Memory poison** — :meth:`FaultInjector.poison_range` flips
  deterministic frames to a POISONED state in a frame pool, silently (no
  exception at injection time), including mid-checkpoint/mid-replication via
  :meth:`FaultInjector.poison_at` clock alarms.  Detection, containment
  and repair live in :mod:`repro.ras`.

Recovery machinery lives in :mod:`repro.faults.recovery` (capped
exponential backoff with deterministic jitter) and pod-wide frame-leak
auditing in :mod:`repro.faults.audit`.
"""

from repro.faults.audit import PodAudit, audit_pod, expected_refcounts
from repro.faults.injector import FaultInjector, InjectedCrash
from repro.faults.recovery import RetryExhaustedError, RetryPolicy, call_with_retries

__all__ = [
    "FaultInjector",
    "InjectedCrash",
    "RetryPolicy",
    "RetryExhaustedError",
    "call_with_retries",
    "PodAudit",
    "audit_pod",
    "expected_refcounts",
]
