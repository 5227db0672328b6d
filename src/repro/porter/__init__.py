"""CXLporter: a horizontal autoscaler for FaaS over CXL fabrics (§5).

CXLporter (1) takes appropriately-timed checkpoints of functions, (2) keeps
a pod-wide object store of checkpoints in CXL memory, (3) maintains pools
of ghost containers, (4) drives CXLfork's tiering policies from SLO and
memory-pressure signals, and (5) shortens keep-alive windows under memory
pressure.
"""

from repro.porter.autoscaler import CxlPorter, PorterConfig
from repro.porter.ghostpool import GhostContainerPool
from repro.porter.keepalive import KeepAlivePolicy
from repro.porter.metrics import LatencyRecorder
from repro.porter.objectstore import CheckpointObjectStore, StoredCheckpoint
from repro.porter.scheduler import ClusterScheduler, PodExhaustedError
from repro.porter.tiering_controller import TieringController

__all__ = [
    "CxlPorter",
    "PorterConfig",
    "GhostContainerPool",
    "KeepAlivePolicy",
    "LatencyRecorder",
    "CheckpointObjectStore",
    "StoredCheckpoint",
    "ClusterScheduler",
    "PodExhaustedError",
    "TieringController",
]
