"""repro.parallel — deterministic parallel sweep execution.

Experiments declare their grid as a list of self-contained
:class:`SweepPoint` specs; :func:`run_points` shards them across
shared-nothing worker processes and merges results in canonical point
order, so the output (and its bench digest) is bit-identical to the
serial run.  See :mod:`repro.parallel.executor` for the contract.
"""

from repro.parallel.executor import default_jobs, run_points
from repro.parallel.points import SweepPoint, canonical_params, derive_seed

__all__ = [
    "SweepPoint",
    "canonical_params",
    "default_jobs",
    "derive_seed",
    "run_points",
]
