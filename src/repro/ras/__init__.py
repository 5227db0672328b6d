"""repro.ras — Reliability/Availability/Serviceability for pooled memory.

CXLfork's premise is that process state lives *as-is* in pooled CXL
memory: one corrupted frame silently poisons every child forked from the
image, every ghost container attached to it, and every replica shipped
from it.  Real CXL hardware defines poison/viral containment semantics
for exactly this failure mode; this package closes the software side of
that loop:

* **Injection** — :class:`repro.faults.FaultInjector` grows
  seed-reproducible ``poison_frame``/``poison_range`` faults (including
  mid-operation timing via clock alarms) that flip frames to POISONED in
  a :class:`repro.cxl.allocator.FrameAllocator`.
* **Detection** — per-frame content checksums, computed at checkpoint
  seal time and verified at every restore, replication encode, and
  demand fault that maps checkpoint frames.  A mismatch raises
  :class:`repro.exceptions.PoisonError` instead of serving wrong bytes.
* **Containment** — poisoned frames are refused at every checksum point
  and page-offlined (never recycled) when their last reference drops;
  see ``FrameAllocator.poison``.
* **Repair** — :class:`repro.ras.repair.Repairer` escalates
  deterministically: re-copy from the CoW parent, re-fetch from a
  peer-pod replica, else a clean re-checkpoint; a virtual-time
  :class:`repro.ras.scrub.Scrubber` walks frames at a GB/s budget.

Checksum model: sealed checkpoint frames are immutable by construction
(children copy-on-write, they never write through), so "stored checksum
no longer matches frame contents" is *equivalent to* "the frame is in
the pool's poisoned set".  The runtime therefore verifies membership —
a read-only walk of simulator state, following the :mod:`repro.check`
contract: verification never advances a virtual clock, so enabling it
cannot perturb experiment results or committed digests.
"""

from __future__ import annotations

from repro.check import CHECK
from repro.exceptions import PoisonError
from repro.ras.checksum import (
    checkpoint_frames,
    seal_checkpoint,
    verify_checkpoint,
    verify_frames,
)
from repro.runtime import Switch


#: The process-wide RAS checksum switch.  Off by default so the hot paths
#: stay untouched; active whenever the differential checker is (a checked
#: run should catch corruption too).  ``RAS.force()`` pins the decision for
#: a scope regardless of either; the corruption sweep uses it to run
#: checksums-off control cells even under ``repro run --check``.
RAS = Switch(
    "ras", counters=("seals", "verifications", "detections"), follows=CHECK
)


__all__ = [
    "RAS",
    "PoisonError",
    "checkpoint_frames",
    "seal_checkpoint",
    "verify_checkpoint",
    "verify_frames",
]
