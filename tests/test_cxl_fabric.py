"""CXL device, fabric, and topology."""

import pytest

from repro.cxl.device import CXL_FRAME_BASE, CxlDeviceSpec, CxlMemoryDevice, is_cxl_frame
from repro.cxl.fabric import CxlFabric
from repro.cxl.topology import NodeSpec, PodTopology
from repro.sim.units import GIB, MIB


class TestDevice:
    def test_default_capacity_is_16gib(self):
        assert CxlMemoryDevice().capacity_bytes == 16 * GIB

    def test_frames_live_above_base(self):
        device = CxlMemoryDevice()
        frame = int(device.frames.alloc_many(1)[0])
        assert frame >= CXL_FRAME_BASE
        assert is_cxl_frame(frame)

    def test_local_frames_below_base(self):
        assert not is_cxl_frame(12345)

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            CxlDeviceSpec(capacity_bytes=0)

    def test_usage_accounting(self):
        device = CxlMemoryDevice(CxlDeviceSpec(capacity_bytes=1 * GIB))
        device.frames.alloc_many(256)  # 1 MiB
        assert device.used_bytes == 1 * MIB
        assert device.free_bytes == 1 * GIB - 1 * MIB


class TestFabric:
    def test_shared_allocation(self):
        fabric = CxlFabric()
        frames = fabric.alloc_frames(10)
        assert all(is_cxl_frame(int(f)) for f in frames)

    def test_sharer_refcounts(self):
        fabric = CxlFabric()
        frames = fabric.alloc_frames(4)
        fabric.get_frames(frames)
        assert fabric.put_frames(frames) == 0
        assert fabric.put_frames(frames) == 4
        assert fabric.used_bytes == 0

    def test_pinned_regions(self):
        fabric = CxlFabric()
        fabric.pin_region("objectstore", 16)
        assert fabric.used_bytes == 16 * 4096
        with pytest.raises(ValueError):
            fabric.pin_region("objectstore", 1)

    def test_double_attach_rejected(self):
        topo = PodTopology.paper_testbed(dram_bytes=1 * GIB)
        fabric, nodes = topo.build()
        with pytest.raises(ValueError):
            fabric.attach_node(nodes[0])


class TestTopology:
    def test_paper_testbed_shape(self):
        topo = PodTopology.paper_testbed()
        assert len(topo.nodes) == 2
        assert topo.nodes[0].dram_bytes == 128 * GIB
        assert topo.device.capacity_bytes == 16 * GIB

    def test_build_wires_nodes_to_fabric(self):
        fabric, nodes = PodTopology.paper_testbed(dram_bytes=1 * GIB).build()
        assert fabric.nodes == nodes
        assert nodes[0].fabric is fabric
        assert nodes[0].name == "node0"

    def test_nodes_share_rootfs(self):
        _, nodes = PodTopology.paper_testbed(dram_bytes=1 * GIB).build()
        assert nodes[0].rootfs is nodes[1].rootfs

    def test_disjoint_dram_ranges(self):
        _, nodes = PodTopology.paper_testbed(dram_bytes=1 * GIB).build()
        a, b = nodes
        assert a.dram.limit <= b.dram.base or b.dram.limit <= a.dram.base

    def test_invalid_node_spec(self):
        with pytest.raises(ValueError):
            NodeSpec(name="bad", dram_bytes=0)
        with pytest.raises(ValueError):
            NodeSpec(name="bad", cpu_count=0)

    def test_latency_override(self):
        from repro.cxl.latency import MemoryLatencyModel

        latency = MemoryLatencyModel().with_cxl_latency(200.0)
        fabric, _ = PodTopology.paper_testbed(
            dram_bytes=1 * GIB, latency=latency
        ).build()
        assert fabric.latency.cxl_access_ns == 200.0
