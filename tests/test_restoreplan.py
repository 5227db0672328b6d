"""Restore-plan cache: memoization, epoch invalidation, bit-identity."""

import re

import pytest

from repro.bench import results_digest
from repro.check import mutation
from repro.exceptions import PoisonError
from repro.experiments.common import make_pod
from repro.faas.workload import FunctionWorkload
from repro.faults.audit import audit_pod
from repro.os.mm.pte import PteFlags
from repro.os.mm.vma import VmaKind
from repro.ras import RAS, checkpoint_frames
from repro.ras.checksum import invalidate_restore_plan
from repro.rfork.registry import get_mechanism
from repro.rfork.restoreplan import RESTORE_PLAN, cached_plan, plan_key
from repro.sim.units import GIB

MECHANISMS = ["cxlfork", "criu-cxl", "mitosis-cxl"]


@pytest.fixture(autouse=True)
def _reset_runtimes():
    RESTORE_PLAN.reset()
    RAS.reset()
    yield
    RESTORE_PLAN.reset()
    RAS.reset()


def _checkpointed(pod, mech_name, parent):
    workload, instance = parent
    mech = get_mechanism(mech_name, fabric=pod.fabric, cxlfs=pod.cxlfs)
    ckpt, _ = mech.checkpoint(instance.task)
    return mech, ckpt


class TestRuntime:
    def test_on_by_default(self):
        assert RESTORE_PLAN.active()

    def test_force_overrides_and_nests(self):
        with RESTORE_PLAN.force(False):
            assert not RESTORE_PLAN.active()
            with RESTORE_PLAN.force(True):
                assert RESTORE_PLAN.active()
            assert not RESTORE_PLAN.active()
        assert RESTORE_PLAN.active()


class TestMemoization:
    @pytest.mark.parametrize("mech_name", MECHANISMS)
    def test_first_restore_builds_second_hits(self, pod, parent, mech_name):
        mech, ckpt = _checkpointed(pod, mech_name, parent)
        assert cached_plan(ckpt) is None
        mech.restore(ckpt, pod.target)
        plan = cached_plan(ckpt)
        assert plan is not None
        assert RESTORE_PLAN.builds == 1
        mech.restore(ckpt, pod.target)
        assert cached_plan(ckpt) is plan  # served, not rebuilt
        assert RESTORE_PLAN.hits >= 1
        assert RESTORE_PLAN.builds == 1

    @pytest.mark.parametrize("mech_name", MECHANISMS)
    def test_plan_off_leaves_no_plan(self, pod, parent, mech_name):
        mech, ckpt = _checkpointed(pod, mech_name, parent)
        with RESTORE_PLAN.force(False):
            result = mech.restore(ckpt, pod.target)
        assert result.task is not None
        assert cached_plan(ckpt) is None
        assert RESTORE_PLAN.builds == 0

    def test_key_captures_live_epochs(self, pod, checkpointed):
        _, _, mech, ckpt, _ = checkpointed
        mech.restore(ckpt, pod.target)
        assert cached_plan(ckpt).key == plan_key(ckpt, pod.fabric)

    def test_delete_drops_plan(self, pod, checkpointed):
        _, _, mech, ckpt, _ = checkpointed
        mech.restore(ckpt, pod.target)
        assert cached_plan(ckpt) is not None
        ckpt.delete()
        assert cached_plan(ckpt) is None

    def test_mitosis_plan_has_no_frames(self, pod, parent):
        # Mitosis images live in node-local shadow memory, not on the
        # fabric — there is no CXL frame set for RAS to verify.
        mech, ckpt = _checkpointed(pod, "mitosis-cxl", parent)
        mech.restore(ckpt, pod.target)
        assert cached_plan(ckpt).frames is None


class TestDeletedCheckpoint:
    @pytest.mark.parametrize("mech_name", MECHANISMS)
    def test_restore_after_delete_raises(self, pod, parent, mech_name):
        RAS.enable()
        mech, ckpt = _checkpointed(pod, mech_name, parent)
        child = mech.restore(ckpt, pod.target).task
        pod.target.kernel.exit_task(child)
        mech.delete_checkpoint(ckpt)
        tasks_before = len(list(pod.target.kernel.tasks()))
        for plan_on in (True, False):
            with RESTORE_PLAN.force(plan_on):
                with pytest.raises(ValueError, match=re.escape(repr(ckpt.comm))):
                    mech.restore(ckpt, pod.target)
        assert cached_plan(ckpt) is None  # drop_plan is not undone
        assert len(list(pod.target.kernel.tasks())) == tasks_before
        report = audit_pod(pod.fabric, pod.nodes, cxlfs=pod.cxlfs)
        assert report.clean, report.describe()


class TestPlanReference:
    """Each builder against the same values computed directly on a task."""

    def test_criu_install_specs_follow_vma_skip_rule(self, pod, parent):
        from repro.rfork.criu import build_restore_plan

        mech, ckpt = _checkpointed(pod, "criu-cxl", parent)
        task = mech.restore(ckpt, pod.target).task
        plan = build_restore_plan(ckpt)
        clean_bits = int(PteFlags.DIRTY) | int(PteFlags.WRITE)
        install, skipped = [], 0
        for pagemap in ckpt.pagemaps:
            if not pagemap.flags & clean_bits:
                vma = task.mm.vmas.find(pagemap.start_vpn)
                if vma is not None and vma.kind is VmaKind.FILE_PRIVATE:
                    skipped += 1
                    continue
            install.append((pagemap.start_vpn, pagemap.npages))
        assert skipped >= 1  # the skip rule really is exercised
        assert plan.install_specs == install
        assert plan.total_installed == sum(n for _, n in install)
        assert plan.n_meta_records == (
            4 + len(ckpt.vma_records) + len(ckpt.pagemaps)
        )

    @pytest.mark.parametrize("naive", [False, True])
    def test_cxlfork_tables_match_restored_pagetable(self, pod, parent, naive):
        from repro.rfork.cxlfork import CxlFork, build_restore_plan

        _, instance = parent
        mech = CxlFork(naive_restore=naive)
        ckpt, _ = mech.checkpoint(instance.task)
        task = mech.restore(ckpt, pod.target).task
        plan = build_restore_plan(ckpt)
        assert plan.upper_tables == task.mm.pagetable.upper_level_tables()
        attached = [ckpt.heap.deref(off) for off in ckpt.leaf_offsets.values()]
        assert plan.naive_installed == sum(leaf.present_count() for leaf in attached)

    def test_mitosis_meta_records(self, pod, parent):
        from repro.rfork.mitosis import build_restore_plan

        _, ckpt = _checkpointed(pod, "mitosis-cxl", parent)
        plan = build_restore_plan(ckpt)
        assert plan.n_meta_records == (
            2 + len(ckpt.vma_records) + ckpt.present_pages // 64
        )


class TestInvalidation:
    def test_pool_poison_epoch_rebuilds(self, pod, checkpointed):
        _, _, mech, ckpt, _ = checkpointed
        mech.restore(ckpt, pod.target)
        stale = cached_plan(ckpt)
        pool = pod.fabric.device.frames
        frames = checkpoint_frames(ckpt)
        pool.poison(frames[:1])
        pool.clear_poison(frames[:1])  # image is clean again, epoch moved
        assert stale.key != plan_key(ckpt, pod.fabric)
        mech.restore(ckpt, pod.target)
        assert cached_plan(ckpt) is not stale
        assert RESTORE_PLAN.invalidations == 1
        assert RESTORE_PLAN.builds == 2

    def test_reseal_epoch_rebuilds(self, pod, checkpointed):
        _, _, mech, ckpt, _ = checkpointed
        mech.restore(ckpt, pod.target)
        stale = cached_plan(ckpt)
        invalidate_restore_plan(ckpt)  # what re-seal / repair rewrites call
        mech.restore(ckpt, pod.target)
        assert cached_plan(ckpt) is not stale
        assert RESTORE_PLAN.invalidations == 1

    def test_dedup_repoint_epoch_in_key(self, pod, checkpointed):
        _, _, mech, ckpt, _ = checkpointed
        mech.restore(ckpt, pod.target)
        before = cached_plan(ckpt).key
        pod.fabric.chunk_index.epoch += 1  # what repoint() does
        assert before != plan_key(ckpt, pod.fabric)

    def test_cached_verdict_still_counts_verifications(self, pod, parent):
        RAS.enable()
        mech, ckpt = _checkpointed(pod, "cxlfork", parent)
        mech.restore(ckpt, pod.target)
        v1 = RAS.verifications
        mech.restore(ckpt, pod.target)  # plan hit + cached clean verdict
        assert RAS.verifications == v1 + 1

    def test_poison_defeats_cached_verdict(self, pod, parent):
        RAS.enable()
        mech, ckpt = _checkpointed(pod, "cxlfork", parent)
        mech.restore(ckpt, pod.target)  # builds plan, caches clean verdict
        pod.fabric.device.frames.poison(checkpoint_frames(ckpt)[:1])
        with pytest.raises(PoisonError):
            mech.restore(ckpt, pod.target)


class TestStaleMutation:
    def test_listed_in_registry(self):
        assert "stale-restore-plan" in mutation.KNOWN

    def test_armed_serves_stale_but_fault_path_catches(self, pod, parent):
        """The seeded bug: a stale plan (and its cached clean verdict) is
        served across a poison-epoch bump, so the restore-time checksum is
        blinded — the child's first fault on a poisoned checkpoint frame
        must still raise through the non-plan-mediated verify."""
        RAS.enable()
        workload, instance = parent
        mech, ckpt = _checkpointed(pod, "cxlfork", parent)
        mech.restore(ckpt, pod.target)  # memoize plan + clean verdict
        pod.fabric.device.frames.poison(ckpt.data_frames)
        with mutation.STALE_RESTORE_PLAN.force(True):
            result = mech.restore(ckpt, pod.target)  # wrongly succeeds
            assert result.task is not None
            child = workload.placed_plan_for(instance, result.task)
            with pytest.raises(PoisonError):
                workload.invoke(child)

    def test_disarmed_restore_refuses(self, pod, parent):
        RAS.enable()
        mech, ckpt = _checkpointed(pod, "cxlfork", parent)
        mech.restore(ckpt, pod.target)
        pod.fabric.device.frames.poison(ckpt.data_frames)
        with pytest.raises(PoisonError):
            mech.restore(ckpt, pod.target)


class TestReplicationSeeding:
    @pytest.mark.parametrize("mechanism", ["cxlfork", "criu-cxl"])
    def test_landed_replica_arrives_with_plan(self, mechanism):
        from repro.cluster import build_federation
        from repro.porter.autoscaler import PorterConfig

        router = build_federation(
            2, porter_config=PorterConfig(mechanism=mechanism)
        )
        router.register_function("float")
        src, dst = router.membership.pods()
        src.porter.prewarm_and_checkpoint("float")
        landed = []
        router.replicator.ship("float", src, dst, on_done=landed.append)
        while router.queue.peek_time() is not None:
            router.queue.step()
        replica = landed[0].checkpoint
        plan = cached_plan(replica)
        assert plan is not None
        assert plan.key == plan_key(replica, dst.fabric)

    def test_plan_off_replica_arrives_planless(self):
        from repro.cluster import build_federation
        from repro.porter.autoscaler import PorterConfig

        router = build_federation(
            2, porter_config=PorterConfig(mechanism="cxlfork")
        )
        router.register_function("float")
        src, dst = router.membership.pods()
        src.porter.prewarm_and_checkpoint("float")
        with RESTORE_PLAN.force(False):
            landed = []
            router.replicator.ship("float", src, dst, on_done=landed.append)
            while router.queue.peek_time() is not None:
                router.queue.step()
        assert cached_plan(landed[0].checkpoint) is None


def _restore_trace(mech_name: str, plan_on: bool) -> dict:
    """Checkpoint + two restores + one invocation each, fully digested.

    Fresh pod per run: frame numbers and virtual times must line up
    exactly between the plan-on and plan-off sequences.
    """
    pod = make_pod(dram_bytes=4 * GIB, cxl_bytes=8 * GIB)
    workload = FunctionWorkload("float")
    instance = workload.build_instance(pod.source)
    workload.season(instance)
    with RESTORE_PLAN.force(plan_on):
        mech = get_mechanism(mech_name, fabric=pod.fabric, cxlfs=pod.cxlfs)
        ckpt, cmetrics = mech.checkpoint(instance.task)
        rounds = []
        for _ in range(2):  # second round is the plan-hit path when on
            result = mech.restore(ckpt, pod.target)
            child = workload.placed_plan_for(instance, result.task)
            invocation = workload.invoke(child)
            leaves = [
                (index, leaf.ptes.tolist())
                for index, leaf in sorted(result.task.mm.pagetable.leaves())
            ]
            rounds.append(
                {
                    "restore_latency_ns": result.metrics.latency_ns,
                    "restore_breakdown": result.metrics.breakdown,
                    "prefetched": result.metrics.prefetched_pages,
                    "copied": result.metrics.copied_pages,
                    "mapped_pages": result.task.mm.mapped_pages(),
                    "leaves": leaves,
                    "invocation": invocation,
                    "clock_ns": pod.target.clock.now,
                }
            )
    return {
        "checkpoint_breakdown": cmetrics.breakdown,
        "rounds": rounds,
        "plan_used": cached_plan(ckpt) is not None,
    }


class TestBitIdentical:
    """The plan must be invisible in every simulated observable."""

    @pytest.mark.parametrize("mech_name", MECHANISMS)
    def test_plan_on_equals_plan_off(self, mech_name):
        RESTORE_PLAN.reset()
        on = _restore_trace(mech_name, plan_on=True)
        assert on["plan_used"]  # the cache really was exercised
        assert RESTORE_PLAN.hits >= 1
        off = _restore_trace(mech_name, plan_on=False)
        assert not off["plan_used"]
        on.pop("plan_used"), off.pop("plan_used")
        assert results_digest(on) == results_digest(off)

    def test_plan_on_equals_plan_off_with_ras(self):
        RAS.enable()
        on = _restore_trace("cxlfork", plan_on=True)
        off = _restore_trace("cxlfork", plan_on=False)
        on.pop("plan_used"), off.pop("plan_used")
        assert results_digest(on) == results_digest(off)
