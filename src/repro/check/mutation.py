"""Deliberate, switch-gated bugs for testing the checkers themselves.

A checker that has never caught a bug is untested code.  This module gates
a small set of *seeded mutations* — deliberate single-bit bugs in the
production paths — each behind its own :class:`~repro.runtime.Switch`,
named after the mutation.  CI (and ``tests/test_check_mutation.py``) arms
one, runs the differential oracle, and asserts it fires; disarmed, a
mutation costs its call site one cached switch read.

Known mutations:

``drop-ckpt-cow``
    :meth:`repro.rfork.cxlfork.CxlFork.checkpoint` omits the COW bit from
    the checkpointed PTEs.  A restored child's write to a checkpoint-mapped
    page then silently no-ops (the page stays CXL-resident and read-only
    instead of CoW-ing local) — exactly the class of PTE-encoding bug the
    oracle exists to catch, and invisible to every latency metric.

``flip-frame-byte``
    :meth:`repro.rfork.cxlfork.CxlFork.checkpoint` corrupts one
    checkpointed data frame immediately *after* the checksum seal (the
    pool marks it poisoned).  Without the RAS checksum verification at
    restore the child would silently serve the corrupt byte; with it,
    the first restore raises :class:`repro.exceptions.PoisonError` —
    proving the detector actually fires.

``alias-wrong-chunk``
    The content-addressed seal (:mod:`repro.dedup`) maps a page whose
    content the chunk index already holds into the *wrong* hash bucket —
    some other chunk's frame — while recording the intended code.  The
    restored child then reads another page's bytes through a PTE that
    passes every structural check (the checkpoint's own page table maps
    the same wrong frame the child aliases).  Only the oracle's chunk-code
    cross-check (``anomaly:wrong-chunk``) catches it.  Needs dedup on and
    a second checkpoint (the first seal populates the index; the bug fires
    on hits).

``stale-restore-plan``
    :func:`repro.rfork.restoreplan.plan_for` serves a memoized restore
    plan whose invalidation epoch no longer matches (and
    ``verify_planned`` serves its cached clean verdict), as if the epoch
    contract were broken.  A restore after a poison event then succeeds
    against frames the plan remembers as verified; the child's first CoW
    read of a poisoned page must still raise through the non-plan-mediated
    ``verify_frames`` path — proving stale-plan bugs cannot reach user
    data undetected.

Arm with e.g. ``python -m repro check --mutation drop-ckpt-cow``, or scope
one with ``DROP_CKPT_COW.force(True)``; like every switch, an armed
mutation reaches the experiment runner's worker processes.
"""

from __future__ import annotations

from repro.runtime import Switch

#: Mutation name -> description, for ``python -m repro check --list-mutations``.
KNOWN = {
    "drop-ckpt-cow": "cxlfork checkpoint PTEs lose the COW bit (child writes no-op)",
    "flip-frame-byte": "one checkpointed frame corrupts post-seal "
    "(restore-time checksum must catch it)",
    "alias-wrong-chunk": "dedup seal maps a page to the wrong hash bucket "
    "(oracle chunk-code cross-check must catch it)",
    "stale-restore-plan": "restore serves a memoized plan across an epoch "
    "bump (fault-path checksums must still catch the poison)",
}


#: One switch per mutation, off by default, in :data:`KNOWN` order.
MUTATIONS = tuple(Switch(name) for name in KNOWN)
DROP_CKPT_COW, FLIP_FRAME_BYTE, ALIAS_WRONG_CHUNK, STALE_RESTORE_PLAN = MUTATIONS


__all__ = [
    "ALIAS_WRONG_CHUNK",
    "DROP_CKPT_COW",
    "FLIP_FRAME_BYTE",
    "KNOWN",
    "MUTATIONS",
    "STALE_RESTORE_PLAN",
]
