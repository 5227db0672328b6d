"""Dynamic tiering control (§5, "CXLfork Tiering Policies").

Per function, CXLporter starts with migrate-on-write (maximal sharing).
When a function's latency gets close to its SLO, the function is promoted
to hybrid tiering — unless node memory is already past the HighMem
threshold, in which case no more promotions happen.  The controller also
periodically resets the checkpointed A bits to keep hot-set estimates
fresh (§4.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.faas.slo import SloTracker
from repro.os.node import ComputeNode
from repro.tiering.hotness import reset_access_bits
from repro.tiering.hybrid import HybridTiering
from repro.tiering.mow import MigrateOnWrite
from repro.tiering.policy import TieringPolicy


@dataclass
class TieringController:
    """Chooses each function's tiering policy from SLO + memory signals."""

    #: Above this local-memory utilization no function is promoted to
    #: hybrid tiering (§6.2 sets it to 90%).
    highmem_threshold: float = 0.90
    #: Pin every function to one policy (the Fig. 10 "CXLfork-MoW" arm).
    static_policy: Optional[TieringPolicy] = None
    _trackers: dict = field(default_factory=dict)
    _promoted: set = field(default_factory=set)

    def tracker(self, function: str, slo_ns: float) -> SloTracker:
        tracker = self._trackers.get(function)
        if tracker is None:
            tracker = SloTracker(function=function, slo_ns=slo_ns)
            self._trackers[function] = tracker
        return tracker

    def record_latency(self, function: str, slo_ns: float, latency_ns: float) -> None:
        self.tracker(function, slo_ns).record(latency_ns)

    def is_promoted(self, function: str) -> bool:
        return function in self._promoted

    def evaluate(self, function: str, node: ComputeNode) -> bool:
        """Re-evaluate promotion for ``function``; returns promoted state.

        Promotion happens when latency is close to the SLO and the node is
        below HighMem (§5: past HighMem, no more functions are promoted).
        """
        if self.static_policy is not None:
            return False
        if function in self._promoted:
            return True
        tracker = self._trackers.get(function)
        if (
            tracker is not None
            and tracker.violating()
            and node.memory_pressure() < self.highmem_threshold
        ):
            self._promoted.add(function)
            return True
        return False

    def policy_for(self, function: str, node: ComputeNode) -> TieringPolicy:
        """The tiering policy for a restore of ``function`` on ``node``."""
        if self.static_policy is not None:
            return self.static_policy
        if self.evaluate(function, node):
            return HybridTiering()
        return MigrateOnWrite()

    def refresh_hot_sets(self, checkpoints) -> float:
        """Periodically clear the A bits of stored checkpoints (§4.3).

        Returns the total virtual-time cost of the resets.
        """
        total = 0.0
        for entry in checkpoints:
            pagetable = getattr(entry.checkpoint, "pagetable", None)
            if pagetable is not None:
                total += reset_access_bits(pagetable)
        return total


__all__ = ["TieringController"]
