"""Crash consistency: mid-operation crashes leak nothing; survivors recover.

The §3.1 contract under test: a node crash at *any* point — including
halfway through a checkpoint or restore — leaves no partially-pinned
frames, no dangling cxlfs spans, and no unaccounted CXL regions.  The
fault injector raises :class:`InjectedCrash` from inside the operation
(alarms fire while the victim's clock advances), so each mechanism's
cleanup handlers run exactly as they would on a real mid-operation panic.
"""

import pytest

from repro.experiments.common import make_pod, prepare_parent
from repro.faults import FaultInjector, InjectedCrash, audit_pod
from repro.os.kernel import NodeFailedError
from repro.rfork.registry import get_mechanism
from repro.sim.units import MS

MECHANISMS = ["cxlfork", "criu-cxl", "mitosis-cxl"]


def audit(pod, checkpoints=()):
    return audit_pod(
        pod.fabric, pod.nodes, cxlfs=pod.cxlfs, checkpoints=list(checkpoints)
    )


class TestMidCheckpointCrash:
    @pytest.mark.parametrize("mech_name", MECHANISMS)
    def test_partial_checkpoint_leaks_nothing(self, mech_name):
        pod = make_pod()
        parent = prepare_parent(pod, "json")
        mech = get_mechanism(mech_name, fabric=pod.fabric, cxlfs=pod.cxlfs)
        FaultInjector(seed=1).crash_at(pod.source, pod.source.clock.now + int(1 * MS))
        with pytest.raises(InjectedCrash):
            mech.checkpoint(parent.instance.task)
        # Partially-written images, pins, and spans all rolled back.
        report = audit(pod)
        assert report.clean, report.describe()

    @pytest.mark.parametrize("mech_name", ["cxlfork", "criu-cxl"])
    def test_survivor_restores_prior_checkpoint(self, mech_name):
        """A crash while re-checkpointing must not hurt the old image."""
        pod = make_pod(node_count=3)
        parent = prepare_parent(pod, "json")
        mech = get_mechanism(mech_name, fabric=pod.fabric, cxlfs=pod.cxlfs)
        ckpt, _ = mech.checkpoint(parent.instance.task)
        fresh = prepare_parent(pod, "json", node=pod.nodes[1])
        FaultInjector(seed=2).crash_at(
            pod.nodes[1], pod.nodes[1].clock.now + int(1 * MS)
        )
        with pytest.raises(InjectedCrash):
            mech.checkpoint(fresh.instance.task)
        result = mech.restore(ckpt, pod.nodes[2])
        invocation = parent.workload.invoke(
            parent.workload.placed_plan_for(parent.instance, result.task)
        )
        assert invocation.wall_ns > 0
        report = audit(pod, [ckpt])
        assert report.clean, report.describe()

    def test_mitosis_checkpoint_dies_with_parent(self):
        """Mitosis keeps state on the parent: its death loses the template."""
        pod = make_pod()
        parent = prepare_parent(pod, "json")
        mech = get_mechanism("mitosis-cxl", fabric=pod.fabric)
        ckpt, _ = mech.checkpoint(parent.instance.task)
        FaultInjector(seed=3).crash_now(pod.source)
        with pytest.raises(NodeFailedError):
            mech.restore(ckpt, pod.target)
        report = audit(pod, [ckpt])
        assert report.clean, report.describe()


class TestMidRestoreCrash:
    @pytest.mark.parametrize("mech_name", MECHANISMS)
    def test_partial_restore_leaks_nothing(self, mech_name):
        pod = make_pod(node_count=3)
        parent = prepare_parent(pod, "json")
        mech = get_mechanism(mech_name, fabric=pod.fabric, cxlfs=pod.cxlfs)
        ckpt, _ = mech.checkpoint(parent.instance.task)
        FaultInjector(seed=4).crash_at(pod.target, pod.target.clock.now + int(1 * MS))
        with pytest.raises(InjectedCrash):
            mech.restore(ckpt, pod.target)
        report = audit(pod, [ckpt])
        assert report.clean, report.describe()

    @pytest.mark.parametrize("mech_name", MECHANISMS)
    def test_checkpoint_survives_failed_restore_target(self, mech_name):
        """The image is untouched by a consumer's crash; retry elsewhere."""
        pod = make_pod(node_count=3)
        parent = prepare_parent(pod, "json")
        mech = get_mechanism(mech_name, fabric=pod.fabric, cxlfs=pod.cxlfs)
        ckpt, _ = mech.checkpoint(parent.instance.task)
        FaultInjector(seed=5).crash_at(pod.target, pod.target.clock.now + int(1 * MS))
        with pytest.raises(InjectedCrash):
            mech.restore(ckpt, pod.target)
        result = mech.restore(ckpt, pod.nodes[2])
        assert result.task.node is pod.nodes[2]
        report = audit(pod, [ckpt])
        assert report.clean, report.describe()
