"""Remote-fork mechanisms.

* :class:`CxlFork` — the paper's contribution: as-is checkpoint to CXL,
  pointer rebase, leaf attachment, CoW with tiering (§3-§4).
* :class:`CriuCxl` — state of practice: full serialization to files on an
  in-CXL-memory file system, full-copy restore (§2.3.1, §6.2).
* :class:`MitosisCxl` — state of the art: local shadow checkpoint,
  serialized OS state, lazy per-page remote copies (§2.3.2, §6.2).
* :class:`LocalFork` / :class:`ColdStart` — the reference baselines.

CXLfork, CRIU-CXL and Mitosis-CXL restore from a restore plan
(:mod:`repro.rfork.restoreplan`), memoized while ``RESTORE_PLAN`` is on:
repeated cold starts of one checkpoint pay O(delta) host work instead of
re-scanning the image, with epoch-keyed invalidation on poison/repair,
dedup repoint, and re-seal.
"""

from repro.rfork.base import (
    CheckpointMetrics,
    RemoteForkMechanism,
    RestoreMetrics,
    RestoreResult,
)
from repro.rfork.coldstart import ColdStart
from repro.rfork.criu import CriuCheckpoint, CriuCxl
from repro.rfork.cxlfork import CxlFork, CxlForkCheckpoint
from repro.rfork.localfork import LocalFork
from repro.rfork.mitosis import MitosisCheckpoint, MitosisCxl, MitosisPolicy
from repro.rfork.registry import MECHANISMS, get_mechanism
from repro.rfork.restoreplan import (
    RESTORE_PLAN,
    RestorePlan,
    drop_plan,
    plan_for,
)

__all__ = [
    "RESTORE_PLAN",
    "RestorePlan",
    "drop_plan",
    "plan_for",
    "CheckpointMetrics",
    "RemoteForkMechanism",
    "RestoreMetrics",
    "RestoreResult",
    "ColdStart",
    "CriuCheckpoint",
    "CriuCxl",
    "CxlFork",
    "CxlForkCheckpoint",
    "LocalFork",
    "MitosisCheckpoint",
    "MitosisCxl",
    "MitosisPolicy",
    "MECHANISMS",
    "get_mechanism",
]
