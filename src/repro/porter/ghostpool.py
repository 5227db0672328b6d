"""Ghost container pools (§5, "Ghost Container Pool").

A few configured-but-empty containers are provisioned per function per
node, each holding only 512 KB, waiting for function-restoration requests.
Acquiring one replaces the ~130 ms container-creation cost with a ~1 ms
control-socket trigger.
"""

from __future__ import annotations

from typing import Optional

from repro.faas.container import GHOST_CONTAINER_BYTES, GhostContainer
from repro.os.node import ComputeNode
from repro.sim.units import bytes_to_pages


class GhostContainerPool:
    """Per-node pools of ghost containers, keyed by function."""

    def __init__(self, node: ComputeNode, *, per_function: int = 4) -> None:
        if per_function < 0:
            raise ValueError(f"pool size cannot be negative: {per_function}")
        self.node = node
        self.per_function = per_function
        self._free: dict[str, list] = {}
        self._all: list = []

    def provision(self, function: str, count: Optional[int] = None) -> int:
        """Create ghosts for ``function`` up to the pool size.

        Provisioning happens off the request critical path (no clock
        charge); each ghost reserves its 512 KB of node memory.  Returns
        how many were created.
        """
        want = count if count is not None else self.per_function
        pool = self._free.setdefault(function, [])
        created = 0
        while len(pool) < want:
            ghost = GhostContainer(self.node, function)
            # Reserve the bare container's memory from node DRAM.
            frames = self.node.dram.alloc_many(bytes_to_pages(GHOST_CONTAINER_BYTES))
            ghost.reserved_frames = frames
            pool.append(ghost)
            self._all.append(ghost)
            created += 1
        return created

    def acquire(self, function: str) -> Optional[GhostContainer]:
        """Take a free ghost for ``function``; None if the pool is empty.

        The caller charges :meth:`GhostContainer.trigger`'s latency.
        """
        pool = self._free.get(function)
        if not pool:
            return None
        return pool.pop()

    def release(self, ghost: GhostContainer) -> None:
        """The hosted function exited; the ghost becomes reusable."""
        ghost.release()
        self._free.setdefault(ghost.function_name, []).append(ghost)

    def free_count(self, function: str) -> int:
        return len(self._free.get(function, []))

    @property
    def total_count(self) -> int:
        return len(self._all)


__all__ = ["GhostContainerPool"]
