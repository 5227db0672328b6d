"""Cluster scheduling: which node serves a request."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

# Exhaustion types live in repro.exceptions so pod-level and cluster-level
# exhaustion are distinct; re-exported here for compatibility.
from repro.exceptions import ClusterExhaustedError, PodExhaustedError
from repro.os.node import ComputeNode


@dataclass
class ClusterScheduler:
    """Places requests on nodes.

    Preference order mirrors the paper's platform behaviour:
    1. a node with an idle warm instance of the function (no start cost);
    2. otherwise, for a restore/cold start, the node with the most free
       memory that is not overloaded on CPU (least-loaded tiebreak).

    Failed nodes are never candidates.
    """

    nodes: list

    def pick_warm(self, function: str, has_idle: Callable[[ComputeNode, str], bool]):
        """The least-loaded live node holding an idle instance, or None."""
        candidates = [
            n for n in self.nodes if not n.failed and has_idle(n, function)
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda n: self._cpu_load(n))

    def pick_for_start(
        self, running: Callable[[ComputeNode], int]
    ) -> ComputeNode:
        """Node for a new instance: most free memory, CPU as tiebreak."""
        candidates = [n for n in self.nodes if not n.failed]
        if not candidates:
            raise PodExhaustedError("every node in the pod has failed")

        def key(node: ComputeNode):
            return (-node.dram_free_bytes, running(node))

        return min(candidates, key=key)

    def _cpu_load(self, node: ComputeNode) -> int:
        return getattr(node, "_porter_running", 0)


__all__ = ["ClusterScheduler", "ClusterExhaustedError", "PodExhaustedError"]
