"""Ablations of CXLfork's design choices (DESIGN.md's call-outs).

Each ablation removes one mechanism and shows the cost the paper's design
avoids:

* leaf attachment vs naive page-table reconstruction at restore (§4.2.1);
* dirty-page prefetch on vs off (CoW fault elimination, §4.2.1);
* checkpointing clean private file pages vs CRIU-style lazy file faults
  (§4.1);
* ghost containers vs full container creation (§5);
* synchronous A-set prefetch at restore vs fetch-on-access (§4.3 — the
  paper finds the synchronous variant "generally delivers lower
  performance" on the restore tail).
"""

from repro.experiments.common import make_pod, prepare_parent
from repro.faas.container import CONTAINER_CREATE_NS, GHOST_TRIGGER_NS
from repro.os.mm.faults import FaultKind
from repro.rfork.cxlfork import CxlFork
from repro.tiering.hybrid import HybridTiering, SyncHybridTiering
from repro.tiering.prefetch import DirtyPagePrefetcher


def _restore_bert(mech, policy=None):
    pod = make_pod()
    parent = prepare_parent(pod, "bert")
    ckpt, _ = mech.checkpoint(parent.instance.task)
    restore = mech.restore(ckpt, pod.target, policy=policy)
    child = parent.workload.placed_plan_for(parent.instance, restore.task)
    return parent, restore, child


def test_ablation_leaf_attach_vs_naive_copy():
    _, attach, _ = _restore_bert(CxlFork())
    _, naive, _ = _restore_bert(CxlFork(naive_restore=True))
    # The naive reconstruction costs several times the attach path.
    assert naive.metrics.latency_ns > 3 * attach.metrics.latency_ns
    assert "pt_attach" in attach.metrics.breakdown
    assert "pt_reinstall" in naive.metrics.breakdown


def test_ablation_dirty_prefetch():
    def run(effectiveness):
        mech = CxlFork(prefetcher=DirtyPagePrefetcher(effectiveness=effectiveness))
        parent, restore, child = _restore_bert(mech)
        inv = parent.workload.invoke(child)
        return restore, inv

    _, with_prefetch = run(0.9)
    _, without = run(0.0)
    cow_with = with_prefetch.fault_stats.count(FaultKind.COW_CXL)
    cow_without = without.fault_stats.count(FaultKind.COW_CXL)
    # Prefetch eliminates the bulk of the CoW faults (paper: >95% of
    # parent-written pages are written by children too).
    assert cow_with < cow_without / 3
    assert with_prefetch.fault_ns < without.fault_ns


def test_ablation_checkpoint_file_pages():
    def run(checkpoint_file_pages):
        mech = CxlFork(checkpoint_file_pages=checkpoint_file_pages)
        parent, restore, child = _restore_bert(mech)
        inv = parent.workload.invoke(child)
        return inv

    with_files = run(True)
    without_files = run(False)
    majors_with = with_files.fault_stats.count(FaultKind.FILE_MAJOR)
    majors_without = without_files.fault_stats.count(FaultKind.FILE_MAJOR)
    # Checkpointing clean file pages eliminates remote file faults (§4.1:
    # "faulting in file pages on a remote node on restore is expensive").
    assert majors_with == 0
    assert majors_without > 0
    assert without_files.fault_ns > with_files.fault_ns


def test_ablation_ghost_containers():
    """Ghost trigger vs full container creation: two orders of magnitude."""
    assert CONTAINER_CREATE_NS / GHOST_TRIGGER_NS > 50


def test_ablation_sync_hot_prefetch():
    """Synchronous A-set prefetch trades restore tail for fewer faults —
    and loses on the restore path (the paper's conclusion)."""
    _, lazy_restore, _ = _restore_bert(CxlFork(), policy=HybridTiering())
    parent, sync_restore, sync_child = _restore_bert(
        CxlFork(), policy=SyncHybridTiering()
    )
    # Synchronous prefetch inflates restore latency by a large factor.
    assert sync_restore.metrics.latency_ns > 5 * lazy_restore.metrics.latency_ns
    # ... though the sync child read-faults almost nothing afterwards
    # (remaining copies are write-path faults the dirty prefetch missed).
    sync_inv = parent.workload.invoke(sync_child)
    assert sync_inv.fault_stats.count(FaultKind.MOA_COPY) < 200
