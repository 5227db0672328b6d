"""The repair ladder: cow -> replica -> recheckpoint, plus the scrubber."""

import pytest

from repro.exceptions import PoisonError
from repro.faults import FaultInjector, audit_pod
from repro.ras import RAS, checkpoint_frames, verify_checkpoint
from repro.ras.repair import Repairer
from repro.ras.scrub import Scrubber
from repro.rfork.registry import get_mechanism
from repro.sim.units import PAGE_SIZE


@pytest.fixture(autouse=True)
def _ras_on():
    RAS.reset()
    RAS.enable()
    yield
    RAS.reset()


def _checkpointed(pod, mech_name, parent):
    workload, instance = parent
    mech = get_mechanism(mech_name, fabric=pod.fabric, cxlfs=pod.cxlfs)
    ckpt, _ = mech.checkpoint(instance.task)
    return mech, ckpt


class TestCowRung:
    def test_data_frame_poison_repairs_from_parent(self, pod, parent):
        _, instance = parent
        mech, ckpt = _checkpointed(pod, "cxlfork", parent)
        pool = pod.fabric.device.frames
        bad = ckpt.data_frames[:3].copy()
        pool.poison(bad)
        repairer = Repairer(policy="ladder", parent_task=instance.task)
        before = pod.target.clock.now
        outcome = repairer.repair(ckpt, pod.target.clock)
        assert outcome.rung == "cow"
        assert outcome.frames_repaired == 3
        assert outcome.repair_ns == pod.target.clock.now - before > 0
        # The poisoned frames were dropped and offlined, never recycled.
        assert not pool.has_poison
        assert pool.offlined_frames == 3
        assert pool.poisoned_in(checkpoint_frames(ckpt)).size == 0
        verify_checkpoint(ckpt)  # serviceable again
        mech.restore(ckpt, pod.target)

    def test_cow_unavailable_without_parent(self, pod, parent):
        _, ckpt = _checkpointed(pod, "cxlfork", parent)
        pool = pod.fabric.device.frames
        pool.poison(ckpt.data_frames[:1])
        repairer = Repairer(policy="cow", parent_task=None)
        with pytest.raises(PoisonError):
            repairer.repair(ckpt, pod.target.clock)

    def test_cow_unavailable_for_metadata_poison(self, pod, parent):
        _, instance = parent
        _, ckpt = _checkpointed(pod, "cxlfork", parent)
        pool = pod.fabric.device.frames
        # The heap holds serialized image metadata, not parent bytes.
        pool.poison(ckpt.heap.backing_frames[:1])
        repairer = Repairer(policy="cow", parent_task=instance.task)
        with pytest.raises(PoisonError):
            repairer.repair(ckpt, pod.target.clock)

    def test_cow_unavailable_for_criu_images(self, pod, parent):
        _, instance = parent
        _, ckpt = _checkpointed(pod, "criu-cxl", parent)
        pool = pod.fabric.device.frames
        pool.poison(checkpoint_frames(ckpt)[:1])
        repairer = Repairer(policy="cow", parent_task=instance.task)
        with pytest.raises(PoisonError):
            repairer.repair(ckpt, pod.target.clock)


class TestReplicaRung:
    def test_ladder_escalates_to_replica_for_metadata(self, pod, parent):
        _, instance = parent
        _, ckpt = _checkpointed(pod, "cxlfork", parent)
        pool = pod.fabric.device.frames
        pool.poison(ckpt.heap.backing_frames[:2])
        repairer = Repairer(
            policy="ladder", parent_task=instance.task, replica_available=True
        )
        outcome = repairer.repair(ckpt, pod.target.clock)
        assert outcome.rung == "replica"
        assert not pool.has_poison
        verify_checkpoint(ckpt)

    def test_replica_rewrites_criu_image_files(self, pod, parent):
        _, instance = parent
        mech, ckpt = _checkpointed(pod, "criu-cxl", parent)
        pool = pod.fabric.device.frames
        pool.poison(checkpoint_frames(ckpt)[:2])
        repairer = Repairer(policy="replica", replica_available=True)
        outcome = repairer.repair(ckpt, pod.target.clock)
        assert outcome.rung == "replica"
        assert outcome.repair_ns > 0
        assert pool.poisoned_in(checkpoint_frames(ckpt)).size == 0
        mech.restore(ckpt, pod.target)

    def test_replica_costs_the_link(self, pod, parent):
        _, ckpt = _checkpointed(pod, "cxlfork", parent)
        pool = pod.fabric.device.frames
        pool.poison(ckpt.data_frames[:4])
        repairer = Repairer(policy="replica", replica_available=True)
        outcome = repairer.repair(ckpt, pod.target.clock)
        # 4 pages over RDMA: setup + latency + serialization floor.
        assert outcome.repair_ns > 4 * PAGE_SIZE / 12.5


class TestRecheckpointRung:
    def test_recheckpoint_returns_a_fresh_image(self, pod, parent):
        _, instance = parent
        mech, ckpt = _checkpointed(pod, "cxlfork", parent)
        pool = pod.fabric.device.frames
        pool.poison(ckpt.data_frames[:1])
        repairer = Repairer(
            policy="recheckpoint", parent_task=instance.task, mechanism=mech
        )
        outcome = repairer.repair(ckpt, pod.target.clock)
        assert outcome.rung == "recheckpoint"
        assert outcome.checkpoint is not ckpt
        assert outcome.repair_ns > 0  # the serving node blocked on it
        assert ckpt._deleted
        assert not pool.has_poison
        verify_checkpoint(outcome.checkpoint)
        mech.restore(outcome.checkpoint, pod.target)

    def test_all_rungs_exhausted_raises_poison_error(self, pod, parent):
        _, ckpt = _checkpointed(pod, "cxlfork", parent)
        pod.fabric.device.frames.poison(ckpt.data_frames[:1])
        bare = Repairer(policy="ladder")  # no parent, no replica, no mech
        with pytest.raises(PoisonError) as info:
            bare.repair(ckpt, pod.target.clock)
        assert "repair failed" in str(info.value)


class TestSharedFrames:
    def test_shared_frames_escalate_past_cow(self, pod, parent):
        _, instance = parent
        mech, ckpt = _checkpointed(pod, "cxlfork", parent)
        mech.restore(ckpt, pod.target)  # a live child now maps the frames
        pool = pod.fabric.device.frames
        pool.poison(ckpt.data_frames[:1])
        repairer = Repairer(
            policy="ladder",
            parent_task=instance.task,
            mechanism=mech,
            replica_available=True,
        )
        outcome = repairer.repair(ckpt, pod.target.clock)
        # Frame surgery needs sole ownership; with a live child sharing
        # the mapping only a clean re-checkpoint can serve new forks.
        assert outcome.rung == "recheckpoint"


class TestRetries:
    def test_failed_allocations_during_repair_retry(self, pod, parent, monkeypatch):
        from repro.cxl.allocator import OutOfMemoryError

        _, instance = parent
        _, ckpt = _checkpointed(pod, "cxlfork", parent)
        pool = pod.fabric.device.frames
        pool.poison(ckpt.data_frames[:2])
        injector = FaultInjector(seed=4)
        failures = [2]
        alloc_many = pool.alloc_many

        def flaky_alloc_many(count):
            # The next two allocations fail outright, then the pool recovers.
            if failures[0]:
                failures[0] -= 1
                raise OutOfMemoryError(
                    pool.name, count, pool.free_frames, pool.capacity_frames
                )
            return alloc_many(count)

        monkeypatch.setattr(pool, "alloc_many", flaky_alloc_many)
        repairer = Repairer(
            policy="cow", parent_task=instance.task, rng=injector.rng
        )
        outcome = repairer.repair(ckpt, pod.target.clock)
        assert outcome.rung == "cow"
        assert outcome.attempts == 3  # two OOMs, then success
        assert not pool.has_poison


class TestAuditAfterRepair:
    @pytest.mark.parametrize("mech_name", ["cxlfork", "criu-cxl"])
    def test_repair_leaks_nothing(self, pod, parent, mech_name):
        _, instance = parent
        mech, ckpt = _checkpointed(pod, mech_name, parent)
        pool = pod.fabric.device.frames
        pool.poison(checkpoint_frames(ckpt)[:2])
        repairer = Repairer(
            policy="ladder",
            parent_task=instance.task,
            mechanism=mech,
            replica_available=True,
        )
        outcome = repairer.repair(ckpt, pod.target.clock)
        report = audit_pod(
            pod.fabric, pod.nodes, cxlfs=pod.cxlfs,
            checkpoints=[outcome.checkpoint],
        )
        assert report.clean, report.describe()


class TestScrubber:
    def test_scan_budget_is_bandwidth_limited(self):
        from repro.cxl.allocator import FrameAllocator

        pool = FrameAllocator("s", base=0, capacity_frames=16)
        scrubber = Scrubber(pool, budget_gbps=4.0)
        assert scrubber.scan_ns(PAGE_SIZE) == PAGE_SIZE // 4

    def test_scrub_advances_the_clock_and_finds_poison(self, pod, parent):
        _, ckpt = _checkpointed(pod, "cxlfork", parent)
        pool = pod.fabric.device.frames
        pool.poison(ckpt.data_frames[:2])
        scrubber = Scrubber(pool, budget_gbps=4.0)
        clock = pod.target.clock
        before = clock.now
        report = scrubber.scrub_checkpoint(ckpt, clock)
        frames = checkpoint_frames(ckpt)
        assert clock.now - before == scrubber.scan_ns(frames.size * PAGE_SIZE)
        assert report.poisoned == sorted(int(f) for f in ckpt.data_frames[:2])
        assert report.repaired is None

    def test_scrub_with_repairer_closes_the_loop(self, pod, parent):
        _, instance = parent
        _, ckpt = _checkpointed(pod, "cxlfork", parent)
        pool = pod.fabric.device.frames
        pool.poison(ckpt.data_frames[:1])
        repairer = Repairer(policy="cow", parent_task=instance.task)
        scrubber = Scrubber(pool, budget_gbps=4.0, repairer=repairer)
        report = scrubber.scrub_checkpoint(ckpt, pod.target.clock)
        assert report.repaired is not None
        assert report.repaired.rung == "cow"
        assert not pool.has_poison

    def test_invalid_budget_rejected(self):
        from repro.cxl.allocator import FrameAllocator

        with pytest.raises(ValueError):
            Scrubber(FrameAllocator("s", base=0, capacity_frames=4),
                     budget_gbps=0.0)
