"""ComputeNode: accounting, pressure, failure bookkeeping."""

import pytest

from repro.cxl.device import CXL_FRAME_BASE
from repro.cxl.topology import PodTopology
from repro.os.node import NODE_FRAME_STRIDE
from repro.sim.units import GIB


class TestNodeAccounting:
    def test_memory_counters(self, node0):
        assert node0.dram_used_bytes == 0
        node0.dram.alloc_many(256)  # 1 MiB
        assert node0.dram_used_bytes == 1 << 20
        assert node0.dram_free_bytes == node0.dram_capacity_bytes - (1 << 20)

    def test_memory_pressure(self, node0):
        assert node0.memory_pressure() == 0.0
        node0.dram.alloc_many(node0.dram.capacity_frames // 2)
        assert node0.memory_pressure() == pytest.approx(0.5, abs=0.01)

    def test_frame_ranges_below_cxl_base(self):
        _, nodes = PodTopology.paper_testbed(
            node_count=8, dram_bytes=1 * GIB
        ).build()
        for node in nodes:
            assert node.dram.limit < CXL_FRAME_BASE

    def test_stride_fits_large_dram(self):
        # A node's frame range must fit inside its stride slot.
        _, nodes = PodTopology.paper_testbed(dram_bytes=128 * GIB).build()
        for node in nodes:
            assert node.dram.capacity_frames <= NODE_FRAME_STRIDE

    def test_own_clock_and_log(self, pod):
        a, b = pod.nodes
        a.clock.advance(100)
        assert b.clock.now == 0

    def test_kernel_backref(self, node0):
        assert node0.kernel.node is node0


class TestNodeFailureBookkeeping:
    def test_failed_flag(self, node0):
        assert not node0.failed
        node0.fail()
        assert node0.failed

    def test_fail_kills_all_tasks(self, node0):
        for i in range(3):
            node0.kernel.spawn_task(f"t{i}")
        assert node0.fail() == 3
        assert node0.kernel.tasks() == []
