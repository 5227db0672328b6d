"""Deterministic fan-out executor: shard a sweep grid, merge bit-identically.

The contract, in one sentence: ``run_points(points, worker, jobs=N)``
returns exactly what ``[worker(p) for p in points]`` returns, for every
``N``.  Three rules enforce it:

1. **Shared-nothing workers.**  Each point runs in a fresh forked worker
   process (or inline, for ``jobs=1``) and builds its own pod; no
   simulator object is shared between points.  Workers must be top-level
   (picklable-by-reference) functions taking one
   :class:`~repro.parallel.points.SweepPoint`.
2. **Spec-derived randomness.**  Any RNG a point needs is seeded from the
   point's canonical key (see :func:`repro.parallel.points.derive_seed`)
   or from explicit spec parameters — never from worker identity or
   completion order.
3. **Canonical-order merge.**  Results are collected in the order the
   points were given, not the order workers finish, so the output list —
   and therefore ``repro.bench.results_digest`` over it — is byte-identical
   to the serial run.

The bench harness closes the loop: a parallel timed run's digest is
cross-checked against the serial run's, so a scheduling-order leak into
results is a hard failure, not noise.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Iterable, List

from repro.parallel.points import SweepPoint


def default_jobs() -> int:
    """Worker count when the caller asks for ``jobs=None``: one per CPU."""
    return os.cpu_count() or 1


def run_points(
    points: Iterable[SweepPoint],
    worker: Callable[[SweepPoint], Any],
    *,
    jobs: int = 1,
) -> List[Any]:
    """Run ``worker`` over every point; return results in point order.

    ``jobs <= 1`` runs inline (no processes, no pickling) — the reference
    serial path.  ``jobs > 1`` fans points out to a
    :class:`~concurrent.futures.ProcessPoolExecutor`; submission happens in
    canonical (given) order and results are merged back in that same
    order, so completion order can never leak into the output.
    ``jobs=None`` means one worker per CPU.

    A worker exception cancels the remaining futures and re-raises in the
    caller, tagged with the failing point's label.
    """
    points = list(points)
    if jobs is None:
        jobs = default_jobs()
    if jobs <= 1 or len(points) <= 1:
        return [worker(point) for point in points]

    from concurrent.futures import ProcessPoolExecutor

    results: List[Any] = []
    with ProcessPoolExecutor(max_workers=min(jobs, len(points))) as pool:
        futures = [(point, pool.submit(worker, point)) for point in points]
        try:
            for point, future in futures:
                try:
                    results.append(future.result())
                except Exception as exc:
                    if hasattr(exc, "add_note"):  # 3.11+
                        exc.add_note(f"while running sweep point {point.label()}")
                    raise
        finally:
            for _, future in futures:
                future.cancel()
    return results


__all__ = ["default_jobs", "run_points"]
