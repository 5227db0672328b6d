"""Extensions: failure injection, bandwidth model, migration."""

import numpy as np
import pytest

from repro.cxl.bandwidth import BandwidthTracker
from repro.experiments.common import prepare_parent
from repro.os.kernel import NodeFailedError
from repro.rfork.cxlfork import CxlFork
from repro.rfork.mitosis import MitosisCxl
from repro.tiering.bandwidth_aware import BandwidthAwareTiering
from repro.tiering.migration import migrate_hot_pages


class TestNodeFailure:
    def test_fail_kills_processes_and_blocks_spawns(self, pod):
        node = pod.source
        task = node.kernel.spawn_task("victim")
        node.kernel.map_anon_region(task, 100)
        killed = node.fail()
        assert killed == 1
        assert node.failed
        with pytest.raises(NodeFailedError):
            node.kernel.spawn_task("too-late")

    def test_fail_is_idempotent(self, pod):
        pod.source.fail()
        assert pod.source.fail() == 0

    def test_fail_releases_cxl_shares(self, pod):
        workload_pod = pod
        parent = prepare_parent(workload_pod, "float")
        mech = CxlFork()
        ckpt, _ = mech.checkpoint(parent.instance.task)
        used_after_ckpt = pod.fabric.used_bytes
        # A child on the target node holds CXL references...
        restored = mech.restore(ckpt, pod.target)
        pod.target.fail()
        # ...which the janitor released with the node.
        assert pod.fabric.used_bytes == used_after_ckpt

    def test_cxlfork_checkpoint_survives_source_failure(self, pod):
        parent = prepare_parent(pod, "float")
        mech = CxlFork()
        ckpt, _ = mech.checkpoint(parent.instance.task)
        pod.source.fail()
        restored = mech.restore(ckpt, pod.target)
        assert restored.task.mm.mapped_pages() == ckpt.present_pages

    def test_mitosis_checkpoint_dies_with_parent_node(self, pod):
        parent = prepare_parent(pod, "float")
        mech = MitosisCxl()
        ckpt, _ = mech.checkpoint(parent.instance.task)
        pod.source.fail()
        with pytest.raises(NodeFailedError):
            mech.restore(ckpt, pod.target)

    def test_fork_on_failed_node_rejected(self, pod):
        parent = prepare_parent(pod, "float")
        pod.source.fail()
        with pytest.raises((NodeFailedError, RuntimeError)):
            pod.source.kernel.local_fork(parent.instance.task)


class TestBandwidthTracker:
    def test_idle_fabric_no_inflation(self):
        tracker = BandwidthTracker(capacity_gbps=8.0)
        assert tracker.inflation() == 1.0
        assert tracker.utilization() == 0.0

    def test_inflation_grows_with_load(self):
        tracker = BandwidthTracker(capacity_gbps=8.0)
        tracker.register_stream("a", 4.0)
        half = tracker.inflation()
        tracker.register_stream("b", 3.0)
        assert tracker.inflation() > half > 1.0

    def test_utilization_capped(self):
        tracker = BandwidthTracker(capacity_gbps=1.0, max_utilization=0.95)
        tracker.register_stream("flood", 100.0)
        assert tracker.utilization() == 0.95
        assert tracker.inflation() == pytest.approx(20.0)

    def test_stream_update_and_remove(self):
        tracker = BandwidthTracker()
        tracker.register_stream("a", 2.0)
        tracker.register_stream("a", 1.0)  # update, not add
        assert tracker.offered_gbps == 1.0
        tracker.unregister_stream("a")
        assert tracker.offered_gbps == 0.0
        tracker.unregister_stream("ghost")  # no-op

    def test_validation(self):
        with pytest.raises(ValueError):
            BandwidthTracker(capacity_gbps=0)
        with pytest.raises(ValueError):
            BandwidthTracker().register_stream("x", -1.0)

    def test_fabric_contention_hook(self, pod):
        assert pod.fabric.contention_factor() == 1.0
        pod.fabric.bandwidth = BandwidthTracker(capacity_gbps=1.0)
        pod.fabric.bandwidth.register_stream("x", 0.5)
        assert pod.fabric.contention_factor() == pytest.approx(2.0)


class TestBandwidthAwareTiering:
    def test_behaves_like_hybrid_when_cool(self, pod):
        policy = BandwidthAwareTiering(pod.fabric)
        a = np.array([True, False])
        h = np.array([False, False])
        assert policy.select_copy_on_read(a, h).tolist() == [True, False]

    def test_copies_everything_when_hot(self, pod):
        pod.fabric.bandwidth = BandwidthTracker(capacity_gbps=1.0)
        pod.fabric.bandwidth.register_stream("x", 0.9)
        policy = BandwidthAwareTiering(pod.fabric, utilization_threshold=0.6)
        a = np.array([True, False])
        h = np.array([False, False])
        assert policy.select_copy_on_read(a, h).all()

    def test_threshold_validation(self, pod):
        with pytest.raises(ValueError):
            BandwidthAwareTiering(pod.fabric, utilization_threshold=1.5)


class TestHotPageMigration:
    def test_migrates_accessed_cxl_pages(self, pod):
        parent = prepare_parent(pod, "float")
        mech = CxlFork()
        ckpt, _ = mech.checkpoint(parent.instance.task)
        restored = mech.restore(ckpt, pod.target)
        child = parent.workload.placed_plan_for(parent.instance, restored.task)
        parent.workload.invoke(child)  # sets A bits on CXL-mapped pages
        before_cxl = child.task.mm.cxl_mapped_pages()
        result = migrate_hot_pages(pod.target.kernel, child.task)
        assert result.pages > 0
        assert result.background_ns > 0
        assert child.task.mm.cxl_mapped_pages() < before_cxl

    def test_second_pass_is_empty(self, pod):
        parent = prepare_parent(pod, "float")
        mech = CxlFork()
        ckpt, _ = mech.checkpoint(parent.instance.task)
        restored = mech.restore(ckpt, pod.target)
        child = parent.workload.placed_plan_for(parent.instance, restored.task)
        parent.workload.invoke(child)
        migrate_hot_pages(pod.target.kernel, child.task)
        again = migrate_hot_pages(pod.target.kernel, child.task)
        assert again.pages == 0

    def test_refcounts_balanced_after_migration_and_exit(self, pod):
        parent = prepare_parent(pod, "float")
        mech = CxlFork()
        ckpt, _ = mech.checkpoint(parent.instance.task)
        used_after_ckpt = pod.fabric.used_bytes
        restored = mech.restore(ckpt, pod.target)
        child = parent.workload.placed_plan_for(parent.instance, restored.task)
        parent.workload.invoke(child)
        migrate_hot_pages(pod.target.kernel, child.task)
        pod.target.kernel.exit_task(child.task)
        assert pod.fabric.used_bytes == used_after_ckpt


class TestBandwidthRunningTotal:
    """offered_gbps is a running total; it must never drift from the dict."""

    def test_total_tracks_mixed_mutations_exactly(self):
        tracker = BandwidthTracker(capacity_gbps=100.0)
        # Way past the re-sum cadence, with updates and removals mixed in,
        # using values (0.1) whose binary-float sums accumulate error.
        for i in range(500):
            tracker.register_stream(f"s{i % 40}", 0.1 * (i % 7))
            if i % 3 == 0:
                tracker.unregister_stream(f"s{(i + 13) % 40}")
        assert tracker.offered_gbps == pytest.approx(
            sum(tracker._streams.values()), abs=1e-12
        )

    def test_empty_tracker_is_exactly_zero(self):
        tracker = BandwidthTracker()
        tracker.register_stream("a", 0.1)
        tracker.register_stream("b", 0.2)
        tracker.unregister_stream("a")
        tracker.unregister_stream("b")
        # Not approx: cancellation drift must not survive an empty dict.
        assert tracker.offered_gbps == 0.0

    def test_update_replaces_rather_than_adds(self):
        tracker = BandwidthTracker()
        tracker.register_stream("a", 2.0)
        tracker.register_stream("a", 5.0)
        assert tracker.offered_gbps == pytest.approx(5.0)

    def test_unregister_unknown_is_noop(self):
        tracker = BandwidthTracker()
        tracker.register_stream("a", 2.0)
        tracker.unregister_stream("ghost")
        assert tracker.offered_gbps == pytest.approx(2.0)
