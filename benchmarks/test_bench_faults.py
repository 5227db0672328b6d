"""§4.2.1 microbenchmarks: fault costs on the simulated kernel.

Paper anchors: a CXL CoW fault costs ~2.5 us (≈1.3 us data movement,
≈0.5 us TLB coherence); a regular anonymous fault costs <1 us.
These run through the *actual* fault path (not the cost tables) so they
also benchmark the simulator's hot loop.
"""

import pytest

from repro.experiments.common import make_pod, prepare_parent
from repro.os.mm.faults import FaultKind
from repro.rfork.cxlfork import CxlFork
from repro.sim.units import US
from repro.tiering.prefetch import DirtyPagePrefetcher


def test_anon_fault_cost():
    pod = make_pod()
    kernel = pod.source.kernel
    task = kernel.spawn_task("ubench")
    vma = kernel.map_anon_region(task, 10_000, populate=False)
    stats = kernel.access_range(task, vma.start_vpn, 10_000, write=True)
    per_fault = stats.cost_ns / stats.count(FaultKind.ANON_ZERO)
    assert per_fault < 1 * US


def test_cxl_cow_fault_cost():
    pod = make_pod()
    parent = prepare_parent(pod, "float")
    mech = CxlFork(prefetcher=DirtyPagePrefetcher(effectiveness=0.0))
    ckpt, _ = mech.checkpoint(parent.instance.task)
    restore = mech.restore(ckpt, pod.target)
    task = restore.task
    rw = [s for s in parent.instance.plan.segments if s.label == "rw_data"][0]
    stats = pod.target.kernel.access_range(task, rw.start_vpn, rw.npages, write=True)
    n = stats.count(FaultKind.COW_CXL)
    assert n == rw.npages  # nothing was prefetched
    per_fault = stats.cost_ns / n
    assert 2.0 * US <= per_fault <= 3.0 * US


def test_fault_cost_ordering():
    """Anon < CoW-local < CoW-CXL, and Mitosis remote ≈ CoW-CXL."""
    from repro.cxl.latency import MemoryLatencyModel
    from repro.os.mm.faults import DEFAULT_FAULT_COSTS

    latency = MemoryLatencyModel()
    costs = {
        kind: DEFAULT_FAULT_COSTS.cost_ns(kind, latency)
        for kind in (
            FaultKind.ANON_ZERO,
            FaultKind.COW_LOCAL,
            FaultKind.COW_CXL,
            FaultKind.MITOSIS_REMOTE,
            FaultKind.CXL_MAP,
        )
    }
    assert costs[FaultKind.ANON_ZERO] < costs[FaultKind.COW_LOCAL]
    assert costs[FaultKind.COW_LOCAL] < costs[FaultKind.COW_CXL]
    assert costs[FaultKind.CXL_MAP] < costs[FaultKind.ANON_ZERO]
    assert costs[FaultKind.MITOSIS_REMOTE] == pytest.approx(
        costs[FaultKind.COW_CXL], rel=0.05
    )
