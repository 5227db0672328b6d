"""Restore plans: every CXLfork, CRIU-CXL and Mitosis-CXL restore runs from
one, and repeated cold starts reuse a memoized one, paying O(delta), not
O(image).

CXLfork's restore is near constant *simulated* time — attach the
checkpointed PTE/VMA leaves, init the upper tables — but the simulator
used to pay O(image) *host* CPU on every restore: re-concatenating the
frame set for the RAS checksum verify, re-deref'ing every heap offset,
re-decoding the global-state blob, re-deriving prefetch page sets.
Cluster-scale and fig10 replay thousands of cold starts from a handful of
warm images, so that host cost dominated the wall clock.

A :class:`RestorePlan` holds, per checkpoint, every restore input that is
a pure function of the sealed image:

* the concatenated frame array the RAS verify scans (plus a cached
  clean-verify verdict, keyed by the pool's poison epoch);
* the PTE-leaf attach list (leaf index -> leaf object) and the numpy
  attach arrays (leaf indices, CXL-residency flags, backing frames);
* the frozen VMA construction specs (attached leaf objects for cxlfork,
  rebuilt immutable ``Vma`` objects for CRIU/Mitosis) and ``max_vpn``;
* the upper-level page-table count (a pure function of the leaf-index
  set, since restored tasks start with an empty tree);
* the CRIU pagemap install decisions (which runs are skipped as clean
  file pages) and the naive-restore installed-page total;
* the dirty-page prefetch selection masks (DIRTY bits on checkpoint
  leaves are stable post-seal: checkpoint PTEs never carry WRITE, so no
  child write can ever set DIRTY on a shared leaf);
* the decoded global-state blob and its decode cost (keyed by codec
  identity, so differently-configured codecs never share a decode).

What is deliberately **not** cached: the ACCESSED-hot page sets.  Children
set the A bit on shared checkpoint leaves as they run (the §4.3 harvesting
channel), so ``_sync_prefetch_hot`` must re-derive hotness live on every
restore — a cached hot set would freeze the harvest.

Invalidation contract
---------------------
A plan is keyed by the checkpoint's identity plus three explicit epochs,
captured at build time:

* ``checkpoint._plan_epoch`` — bumped by
  :func:`repro.ras.checksum.invalidate_restore_plan` whenever the sealed
  image mutates in place: a re-seal, or the RAS repairer rewriting frames
  (``Repairer._rewrite_image`` / ``_rewrite_files``);
* ``FrameAllocator.epoch`` — bumped on every poison-visibility change
  (``poison()``, ``clear_poison()``, poisoned-frame offlining in
  ``put()``), exactly the sites that already drop ``_bad_cache``;
* ``ChunkIndex.epoch`` — bumped on every dedup ``repoint()`` (content
  moving between frames under a live image).

A stale plan is **rebuilt, never served**: :func:`plan_for` compares the
captured key against the live epochs and discards on any mismatch.  The
seeded ``stale-restore-plan`` mutation (:mod:`repro.check.mutation`)
deliberately serves across a bump so the checksum/oracle layer can prove
it would catch the corruption.

Every restore gets its plan from :func:`plan_for`, which also refuses a
deleted checkpoint; the switch only decides whether the plan is
memoized.  A memoized plan equals a fresh build, so simulated time,
metrics breakdowns, and bench digests are unchanged with the cache on or
off (``RESTORE_PLAN.force(False)`` scopes a differential check;
``RESTORE_PLAN.disable()`` turns memoization off for the process, and the
experiment runner carries that to its workers).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.check import mutation as _mutation
from repro.ras import RAS
from repro.ras.checksum import verify_frames
from repro.runtime import Switch


#: The switch every mechanism consults.  Default **on**: the cache is a
#: host-side optimization, forced off only to prove the bit-identical
#: contract (CI runs the quick digests both ways).
RESTORE_PLAN = Switch(
    "restore-plan", default=True, counters=("builds", "hits", "invalidations")
)


class RestorePlan:
    """One checkpoint's memoized restore inputs (see module docstring).

    A dumb container: each mechanism's ``build_restore_plan`` populates
    the fields it needs and leaves the rest ``None``.  Fields keyed by a
    collaborator (codec, prefetcher effectiveness) fill lazily and
    revalidate against that collaborator on every serve.
    """

    __slots__ = (
        # identity + epochs (set by plan_for)
        "key",
        # RAS verify
        "frames",
        "verified_pool_epoch",
        # page-table attach
        "pt_attach",
        "leaf_indices",
        "leaf_cxl_resident",
        "backing_frames",
        "upper_tables",
        "naive_installed",
        # VMA construction
        "vma_leaves",
        "vma_specs",
        "max_vpn",
        # CRIU page install / metadata
        "install_specs",
        "total_installed",
        "n_meta_records",
        # lazily-filled, collaborator-keyed fields
        "_codec_ref",
        "global_state",
        "global_decode_ns",
        "ns_record",
        "prefetch_specs",
        "prefetch_effectiveness",
    )

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, None)


def checkpoint_plan_epoch(checkpoint: Any) -> int:
    """The checkpoint-local invalidation epoch (0 until first bump)."""
    return getattr(checkpoint, "_plan_epoch", 0)


def plan_key(checkpoint: Any, fabric: Any) -> tuple:
    """The live epoch triple a valid plan must have captured."""
    pool = fabric.device.frames
    index = getattr(fabric, "_chunk_index", None)
    return (
        checkpoint_plan_epoch(checkpoint),
        pool.epoch,
        0 if index is None else index.epoch,
    )


def cached_plan(checkpoint: Any) -> Optional[RestorePlan]:
    """The plan memoized on ``checkpoint``, valid or not (introspection)."""
    return getattr(checkpoint, "_restore_plan", None)


def plan_for(
    checkpoint: Any,
    fabric: Any,
    build: Callable[[Any], RestorePlan],
) -> RestorePlan:
    """Return a valid plan for ``checkpoint``: the single entry point of
    every restore.

    Raises ``ValueError`` for a deleted checkpoint, before anything is
    built.  With the runtime off, returns ``build(checkpoint)`` without
    memoizing it (the counters track cache events only, so they stay 0).
    With it on, a memoized plan is served while its captured epochs match
    the live ones; otherwise it is discarded and rebuilt (never served),
    except under the seeded ``stale-restore-plan`` mutation, which serves
    it anyway so the checksum/oracle layer can prove it catches the
    consequences.  Either way the caller gets what a fresh build returns.
    """
    if getattr(checkpoint, "_deleted", False):
        raise ValueError(
            f"cannot restore {checkpoint.comm!r}: its checkpoint was deleted"
        )
    if not RESTORE_PLAN.active():
        return build(checkpoint)
    key = plan_key(checkpoint, fabric)
    cached = getattr(checkpoint, "_restore_plan", None)
    if cached is not None:
        if cached.key == key:
            RESTORE_PLAN.hits += 1
            return cached
        if _mutation.active("stale-restore-plan"):
            # Seeded bug: serve across the epoch bump (see repro.check).
            RESTORE_PLAN.hits += 1
            return cached
        RESTORE_PLAN.invalidations += 1
    plan = build(checkpoint)
    plan.key = key
    checkpoint._restore_plan = plan
    RESTORE_PLAN.builds += 1
    return plan


def drop_plan(checkpoint: Any) -> None:
    """Release a deleted checkpoint's plan (frees its numpy arrays)."""
    if getattr(checkpoint, "_restore_plan", None) is not None:
        checkpoint._restore_plan = None


def verify_planned(pool: Any, plan: RestorePlan, *, context: str) -> None:
    """RAS-verify a checkpoint through its plan's cached frame array.

    Bit-compatible with :func:`repro.ras.checksum.verify_checkpoint`: the
    per-serve ``RAS.verifications`` increment is preserved, detections
    raise identically, and only the O(image) frame concatenation (plus,
    when the pool is dirty, a re-scan already proven clean at this exact
    pool epoch) is skipped.  A clean verdict is cached keyed by the
    pool's poison epoch; any poison/clear/offline event bumps that epoch
    and forces a fresh scan.
    """
    if plan.verified_pool_epoch is not None and (
        plan.verified_pool_epoch == pool.epoch
        or _mutation.active("stale-restore-plan")
    ):
        RAS.verifications += 1
        return
    verify_frames(pool, plan.frames, context=context)
    plan.verified_pool_epoch = pool.epoch


__all__ = [
    "RESTORE_PLAN",
    "RestorePlan",
    "cached_plan",
    "checkpoint_plan_epoch",
    "drop_plan",
    "plan_for",
    "plan_key",
    "verify_planned",
]
