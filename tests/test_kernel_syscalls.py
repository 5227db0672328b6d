"""Cgroup enforcement on the kernel's allocation path."""

import pytest


class TestCgroupEnforcement:
    def _limited_task(self, kernel, limit_bytes):
        from repro.faas.container import ContainerFactory

        container = ContainerFactory(kernel.node).create("fn", charge=False)
        container.cgroup.memory_limit_bytes = limit_bytes
        return kernel.spawn_task("fn", container=container), container

    def test_allocation_within_limit(self, kernel):
        task, container = self._limited_task(kernel, 1 << 20)  # 1 MiB
        vma = kernel.map_anon_region(task, 200, populate=False)
        kernel.access_range(task, vma.start_vpn, 200, write=True)
        assert container.cgroup.charged_bytes == 200 * 4096

    def test_limit_breach_raises(self, kernel):
        from repro.cxl.allocator import OutOfMemoryError

        task, _ = self._limited_task(kernel, 100 * 4096)
        vma = kernel.map_anon_region(task, 200, populate=False)
        with pytest.raises(OutOfMemoryError):
            kernel.access_range(task, vma.start_vpn, 200, write=True)

    def test_exit_uncharges(self, kernel):
        task, container = self._limited_task(kernel, 1 << 20)
        vma = kernel.map_anon_region(task, 100, populate=False)
        kernel.access_range(task, vma.start_vpn, 100, write=True)
        kernel.exit_task(task)
        assert container.cgroup.charged_bytes == 0

    def test_unlimited_cgroup_never_blocks(self, kernel):
        task, container = self._limited_task(kernel, None)
        vma = kernel.map_anon_region(task, 500, populate=False)
        kernel.access_range(task, vma.start_vpn, 500, write=True)
        assert container.cgroup.charged_bytes == 500 * 4096
