"""Differential test: one ``access_range`` table call vs one call per row.

The table form resolves its leading warm rows in one vectorized pass and
sends the rest down the per-chunk fault path.  It must leave exactly the
state that the same rows leave when each is its own (one-row, per-chunk)
call, on two identically built pods:

* every PTE of every leaf — the child's and the checkpoint's, so A/D bits
  written through attached CXL leaves count;
* fabric and DRAM refcounts, owned-page accounting and VMA registration;
* per-row ``touched_cxl`` / ``touched_local`` / ``warmed``, the fault
  ``counts`` and ``cost_ns``;
* every node's ``clock.now``.

The child is restored from a CXLfork checkpoint whose anon pages were
populated without A/D bits, so its attached CXL leaves start A-clear and a
read that lands on the wrong leaf (shared vs privatized) shows up.  The
parent keeps those pages private, writable and A/D-clear, so warm writes
(D bits) and a page read and written in one table are covered there.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.common import make_pod
from repro.os.kernel import SegfaultError
from repro.os.mm.pte import PteFlags
from repro.rfork.cxlfork import CxlFork
from repro.sim.units import GIB

#: Populated, writable, but never accessed: A and D start clear.
_COLD = int(PteFlags.PRESENT | PteFlags.WRITE | PteFlags.USER)


def _build():
    """A pod whose source node runs a parent and whose target node runs a
    child restored from the parent's checkpoint.

    Regions (by name): ``cold`` — 1100 populated anon pages on attached,
    A-clear CXL leaves (reads are warm, writes CoW); ``holes`` — 600
    unpopulated anon pages (anon faults); ``lib`` — an unpopulated
    read-only file mapping (file faults, VMA-leaf CoW); ``ro`` — a
    populated read-only file mapping (warm reads, writes segfault).
    """
    pod = make_pod(dram_bytes=1 * GIB, cxl_bytes=1 * GIB)
    kernel = pod.source.kernel
    parent = kernel.spawn_task("parent")
    regions = {
        "cold": kernel.map_anon_region(parent, 1100, label="cold", flags=_COLD),
        "holes": kernel.map_anon_region(parent, 600, label="holes", populate=False),
        "lib": kernel.map_file_region(parent, "/lib/a.so", 300, populate=False),
        "ro": kernel.map_file_region(parent, "/lib/b.so", 200),
    }
    mech = CxlFork()
    ckpt, _ = mech.checkpoint(parent)
    child = mech.restore(ckpt, pod.target).task
    return pod, ckpt, {"parent": parent, "child": child}, regions


def _state(pod, ckpt):
    """Everything an access can change, as plain comparable values."""
    tables = [("ckpt", ckpt.pagetable)]
    owned = []
    vmas = []
    for node in pod.nodes:
        for task in node.kernel.tasks():
            tables.append((f"{node.name}/{task.pid}", task.mm.pagetable))
            owned.append(task.mm.owned_local_pages)
            vmas.append([(v.start_vpn, v.file_registered) for v in task.mm.vmas])
    leaves = {
        name: [
            (index, leaf.cxl_resident, leaf.refcount, leaf.ptes.tolist())
            for index, leaf in table.leaves()
        ]
        for name, table in tables
    }
    return {
        "leaves": leaves,
        "cxl_refs": pod.fabric.device.frames.snapshot_refcounts(),
        "dram_refs": [node.dram.snapshot_refcounts() for node in pod.nodes],
        "owned": owned,
        "vmas": vmas,
        "clocks": [node.clock.now for node in pod.nodes],
    }


def _rows(regions, spec):
    """``(start_vpn, npages, write, mask)`` rows from ``(region, offset,
    npages, write, mask_seed)`` specs.  A negative seed touches every page;
    a seeded mask touches ~40% of the pages that lie inside the region, so
    a row running past its VMA's end touches only present pages there."""
    rows = []
    for name, offset, npages, write, seed in spec:
        start = regions[name].start_vpn + offset
        mask = None
        if seed >= 0:
            mask = np.random.default_rng(seed).random(npages) < 0.4
            mask[regions[name].end_vpn - start :] = False
        rows.append((start, npages, write, mask))
    return rows


def _run_table(task, rows):
    starts, sizes, writes, masks = (list(col) for col in zip(*rows))
    error = None
    stats = None
    try:
        stats = task.kernel.access_range(
            task, starts, sizes, write=writes, touched_mask=masks
        )
    except SegfaultError as exc:
        error = str(exc)
    return stats, error


def _run_rows(task, rows):
    per_row = []
    error = None
    for start, npages, write, mask in rows:
        try:
            per_row.append(
                task.kernel.access_range(
                    task, start, npages, write=write, touched_mask=mask
                )
            )
        except SegfaultError as exc:
            error = str(exc)
            break
    return per_row, error


def _check(spec, who="child"):
    """Run ``spec`` on task ``who`` both ways, on twin pods, and compare
    everything.  Returns the table call's stats (None if it raised) and
    the error."""
    pod_t, ckpt_t, tasks_t, regions = _build()
    pod_r, ckpt_r, tasks_r, _ = _build()
    rows = _rows(regions, spec)
    assert _state(pod_t, ckpt_t) == _state(pod_r, ckpt_r)

    table, table_error = _run_table(tasks_t[who], rows)
    per_row, row_error = _run_rows(tasks_r[who], rows)

    assert table_error == row_error
    assert _state(pod_t, ckpt_t) == _state(pod_r, ckpt_r)
    if table is None:
        return None, table_error
    assert list(table.rows_touched_cxl) == [s.touched_cxl for s in per_row]
    assert list(table.rows_touched_local) == [s.touched_local for s in per_row]
    assert list(table.rows_warmed) == [s.warmed for s in per_row]
    counts: dict = {}
    cost_ns = 0.0
    for s in per_row:
        for kind, n in s.counts.items():
            counts[kind] = counts.get(kind, 0) + n
        cost_ns += s.cost_ns
    assert list(table.counts.items()) == list(counts.items())
    assert table.cost_ns == cost_ns
    assert table.touched == sum(s.touched for s in per_row)
    return table, None


class TestNamedCases:
    def test_all_warm_table(self):
        table, _ = _check(
            [
                ("cold", 0, 700, False, 1),
                ("ro", 10, 150, False, -1),
                ("cold", 600, 500, False, 2),
                ("cold", 3, 40, False, -1),
            ]
        )
        assert table.total_faults == 0
        assert table.touched_cxl == table.touched > 0

    def test_fault_in_middle_row(self):
        table, _ = _check(
            [
                ("cold", 0, 300, False, 3),
                ("holes", 0, 600, True, 4),
                ("cold", 300, 500, False, 5),
                ("lib", 0, 300, False, 6),
                ("ro", 0, 200, False, -1),
            ]
        )
        assert table.total_faults > 0

    def test_write_cow_on_shared_leaf_then_warm_rows_on_it(self):
        """Row 1 CoWs a page of the leaf that rows 2-3 read: the PTE-leaf
        CoW must happen before their A bits are set, so the bits land on
        the private copy and the checkpoint's leaf stays A-clear there."""
        table, _ = _check(
            [
                ("cold", 600, 100, False, -1),
                ("cold", 0, 4, True, -1),
                ("cold", 10, 200, False, 7),
                ("cold", 300, 100, False, -1),
            ]
        )
        assert table.total_faults > 0

    def test_page_written_then_read_keeps_both_bits(self):
        """On the parent the pages are private and writable: a warm write
        sets D, and a later read of the same page must not drop it."""
        table, _ = _check(
            [
                ("cold", 0, 50, True, -1),
                ("cold", 0, 80, False, -1),
                ("cold", 500, 100, True, 9),
            ],
            who="parent",
        )
        assert table.total_faults == 0

    def test_out_of_vma_row_raises_with_earlier_rows_applied(self):
        _, error = _check(
            [
                ("cold", 0, 200, False, 8),
                ("holes", 0, 100, True, -1),
                ("cold", 1000, 200, False, -1),  # runs past the VMA's end
                ("cold", 0, 10, False, -1),
            ]
        )
        assert "outside VMA" in error
        # Every page this overrunning row touches is present: only the VMA
        # range check stops it.
        _, error = _check(
            [("cold", 0, 200, False, 8), ("cold", 1000, 200, False, 10)]
        )
        assert "outside VMA" in error
        _, error = _check(
            [
                ("cold", 0, 200, False, 8),
                ("ro", 0, 10, True, -1),  # write to a read-only mapping
            ]
        )
        assert "read-only VMA" in error
        # The parent's read-only pages are present and not CoW, so only
        # the VMA permission check stops this write.
        _, error = _check(
            [("cold", 0, 20, True, -1), ("ro", 0, 10, True, -1)], who="parent"
        )
        assert "read-only VMA" in error

    def test_alarm_due_at_entry_fires_after_row_0(self):
        """An alarm due at entry fires on row 0's (zero-cost) clock
        advance: it sees row 0's A bits and not row 1's."""
        spec = [("cold", 0, 100, False, -1), ("cold", 200, 100, False, -1)]
        seen = []
        for runner in (_run_table, _run_rows):
            pod, _, tasks, regions = _build()
            child = tasks["child"]
            rows = _rows(regions, spec)
            clock = pod.target.clock

            def snapshot(pod=pod, child=child, rows=rows):
                bits = [
                    child.mm.pagetable.get_pte(start) & int(PteFlags.ACCESSED)
                    for start, *_ in rows
                ]
                seen.append((pod.target.clock.now, bits))

            clock.at(clock.now, snapshot)
            runner(child, rows)
        assert len(seen) == 2
        assert seen[0] == seen[1]
        assert seen[0][1][0] and not seen[0][1][1]


_REGION_PAGES = {"cold": 1100, "holes": 600, "lib": 300, "ro": 200}


@st.composite
def tables(draw):
    spec = []
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        name = draw(st.sampled_from(sorted(_REGION_PAGES)))
        size = _REGION_PAGES[name]
        offset = draw(st.integers(min_value=0, max_value=size - 1))
        # Mostly in range; sometimes one page past the VMA's end.
        limit = size - offset + draw(st.sampled_from([0, 0, 0, 1]))
        npages = draw(st.integers(min_value=1, max_value=limit))
        write = draw(st.booleans())
        seed = draw(st.integers(min_value=-1, max_value=50))
        spec.append((name, offset, npages, write, seed))
    return spec, draw(st.sampled_from(["child", "parent"]))


@pytest.mark.prop
class TestTableMatchesRows:
    @given(tables())
    @settings(max_examples=100, deadline=None)
    def test_table_matches_one_call_per_row(self, case):
        spec, who = case
        _check(spec, who)
