"""Property-based test: kernel memory invariants under random workloads.

Drives random sequences of map/touch/fork/exit operations against one node
and checks the global invariants that every mechanism depends on:

* frame accounting balances: after all tasks exit, only the page cache
  holds DRAM;
* a task's mapped-page count equals what its page table reports;
* owned-page accounting never goes negative and never exceeds the node's
  allocated frames.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cxl.topology import PodTopology
from repro.sim.units import GIB

pytestmark = pytest.mark.prop


@st.composite
def scripts(draw):
    """Random op sequences over a small set of tasks and regions."""
    ops = []
    n_ops = draw(st.integers(min_value=1, max_value=25))
    for _ in range(n_ops):
        kind = draw(
            st.sampled_from(
                ["map_anon", "map_file", "touch_r", "touch_w", "fork", "exit"]
            )
        )
        ops.append(
            (
                kind,
                draw(st.integers(min_value=0, max_value=3)),  # task slot
                draw(st.integers(min_value=1, max_value=300)),  # pages
                draw(st.integers(min_value=0, max_value=5)),  # region slot
            )
        )
    return ops


class TestKernelInvariants:
    @given(scripts())
    @settings(max_examples=60, deadline=None)
    def test_memory_balances(self, script):
        _, nodes = PodTopology.paper_testbed(
            node_count=1, dram_bytes=1 * GIB
        ).build()
        node = nodes[0]
        kernel = node.kernel
        tasks: dict[int, object] = {}
        regions: dict[tuple, object] = {}

        def task_for(slot):
            task = tasks.get(slot)
            if task is None or task.state.value == "dead":
                task = kernel.spawn_task(f"t{slot}")
                tasks[slot] = task
            return task

        for kind, tslot, pages, rslot in script:
            task = task_for(tslot)
            key = (id(task), rslot)
            if kind == "map_anon":
                vma = kernel.map_anon_region(task, pages, populate=False)
                regions[key] = vma
            elif kind == "map_file":
                vma = kernel.map_file_region(
                    task, f"/lib/r{rslot}.so", pages, populate=False
                )
                regions[key] = vma
            elif kind in ("touch_r", "touch_w"):
                vma = regions.get(key)
                if vma is None or task.mm.vmas.find(vma.start_vpn) is None:
                    continue
                write = kind == "touch_w"
                if write and not int(vma.perms) & 2:
                    continue
                n = min(pages, vma.npages)
                kernel.access_range(task, vma.start_vpn, n, write=write)
            elif kind == "fork":
                child, _ = kernel.local_fork(task)
                tasks[max(tasks) + 1] = child
            elif kind == "exit":
                kernel.exit_task(task)
                del tasks[tslot]

            # Inline invariants after every op.
            for live in kernel.tasks():
                local, cxl = live.mm.rss_split()
                assert cxl == 0  # no checkpoints in this workload
                assert local == live.mm.mapped_pages()
                assert 0 <= live.mm.owned_local_pages <= node.dram.allocated_frames

        for task in list(kernel.tasks()):
            kernel.exit_task(task)
        # All that remains in DRAM is the (shared) page cache.
        assert node.dram.allocated_frames == node.pagecache.total_cached_pages()
