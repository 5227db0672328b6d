"""A compute node: CPUs, local DRAM, caches, a kernel, attached to the fabric.

Nodes are where virtual time lives (each node has its own clock, like each
VM in the paper's testbed has its own OS instance), and where local-memory
pressure is accounted for the CXLporter experiments.
"""

from __future__ import annotations

from typing import Optional

from repro.cxl.allocator import FrameAllocator
from repro.cxl.fabric import CxlFabric
from repro.cxl.topology import NodeSpec
from repro.os.fs.vfs import SharedRootFs
from repro.os.kernel import Kernel
from repro.os.mm.cache import CacheModel
from repro.os.pagecache import PageCache
from repro.sim.clock import Clock
from repro.sim.units import bytes_to_pages
from repro.telemetry import TRACE

#: Per-node DRAM frame ranges are spaced this far apart; must stay below
#: the CXL frame base (1 << 40).  Allows nodes with up to 32 TiB DRAM.
NODE_FRAME_STRIDE = 1 << 33


class ComputeNode:
    """One node of the pod."""

    def __init__(
        self,
        spec: NodeSpec,
        fabric: CxlFabric,
        *,
        node_id: int,
        rootfs: Optional[SharedRootFs] = None,
    ) -> None:
        self.spec = spec
        self.fabric = fabric
        self.node_id = node_id
        self.name = spec.name
        self.clock = Clock()
        self.dram = FrameAllocator(
            f"{spec.name}:dram",
            base=(node_id + 1) * NODE_FRAME_STRIDE,
            capacity_frames=bytes_to_pages(spec.dram_bytes),
        )
        self.cache = CacheModel(capacity_bytes=spec.l3_cache_bytes)
        # All nodes share one root FS object: the identical-image assumption.
        if rootfs is None:
            rootfs = getattr(fabric, "shared_rootfs", None)
            if rootfs is None:
                rootfs = SharedRootFs()
                fabric.shared_rootfs = rootfs
        self.rootfs = rootfs
        self.pagecache = PageCache(self.dram)
        self.kernel = Kernel(self)
        self.failed = False
        #: Callbacks run by :meth:`fail` after local teardown — the pod
        #: janitor registers here to reclaim shared state owned by the
        #: dead node.
        self.crash_hooks: list = []
        # Direct reclaim: allocation pressure first asks registered
        # application victims, then drops page cache (repro.os.mm.reclaim).
        from repro.os.mm.reclaim import MemoryReclaimer

        self.reclaimer = MemoryReclaimer(self)
        self.dram.pressure_handler = self.reclaimer.reclaim
        fabric.attach_node(self)
        # Name this node's virtual clock in exported traces.
        TRACE.register_track(self.clock, self.name)

    # -- failure injection --------------------------------------------------------

    def fail(self) -> int:
        """Crash this node: every local process dies, local memory is gone.

        References the node's processes held on *shared CXL frames* are
        released (a pod-level janitor reclaims a dead node's shares, as in
        partial-failure-resilient CXL memory managers), so checkpoints and
        siblings on other nodes are unaffected.  The node's DRAM pool is
        quarantined — its frames died with the node, and any stale
        references survivors still hold become no-ops.  State checkpointed
        *into this node's DRAM* (e.g. Mitosis shadows) is lost with it.

        Idempotent by contract: the first call returns the number of
        processes killed (possibly 0 on an idle node) and performs teardown;
        every later call returns 0 and does nothing.  Callers distinguish
        "I crashed it" from "it was already dead" via ``self.failed`` before
        the call, not via the return value.
        """
        if self.failed:
            return 0
        killed = 0
        for task in list(self.kernel.tasks()):
            self.kernel.exit_task(task)
            killed += 1
        self.failed = True
        # Local memory dies with the node.  Quarantine *after* task exits so
        # their CXL reference drops (which matter pod-wide) happen normally.
        self.dram.quarantine()
        TRACE.count("node.failures")
        if TRACE.active():
            TRACE.add_span(
                "node.fail", self.clock.now, 0, clock=self.clock,
                node=self.name, killed=killed,
            )
        for hook in list(self.crash_hooks):
            hook(self)
        return killed

    # -- memory accounting ------------------------------------------------------

    @property
    def dram_capacity_bytes(self) -> int:
        return self.spec.dram_bytes

    @property
    def dram_used_bytes(self) -> int:
        return self.dram.used_bytes

    @property
    def dram_free_bytes(self) -> int:
        return self.dram_capacity_bytes - self.dram_used_bytes

    def memory_pressure(self) -> float:
        """Fraction of local DRAM in use (CXLporter's HighMem signal)."""
        return self.dram_used_bytes / self.dram_capacity_bytes

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ComputeNode(name={self.name!r}, "
            f"dram={self.dram_used_bytes >> 20}/{self.dram_capacity_bytes >> 20} MiB)"
        )


__all__ = ["ComputeNode", "NODE_FRAME_STRIDE"]
