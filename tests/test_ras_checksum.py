"""RAS checksum points: seal, restore, replication encode, demand fault."""

import pytest

from repro.cluster.replication import wire_image
from repro.exceptions import PoisonError
from repro.faults import FaultInjector
from repro.ras import RAS, checkpoint_frames, verify_checkpoint
from repro.rfork.registry import get_mechanism


@pytest.fixture(autouse=True)
def _reset_ras():
    RAS.reset()
    yield
    RAS.reset()


def _checkpointed(pod, mech_name, parent):
    workload, instance = parent
    mech = get_mechanism(mech_name, fabric=pod.fabric, cxlfs=pod.cxlfs)
    ckpt, _ = mech.checkpoint(instance.task)
    return mech, ckpt


class TestRuntime:
    def test_inactive_by_default(self):
        assert not RAS.active()

    def test_enable_disable(self):
        RAS.enable()
        assert RAS.active()
        RAS.disable()
        assert not RAS.active()

    def test_check_enabled_implies_ras(self, check_enabled):
        assert RAS.active()


class TestSealAndVerify:
    @pytest.mark.parametrize("mech_name", ["cxlfork", "criu-cxl"])
    def test_clean_image_seals_and_verifies(self, pod, parent, mech_name):
        RAS.enable()
        _, ckpt = _checkpointed(pod, mech_name, parent)
        assert getattr(ckpt, "_ras_sealed", False)
        verify_checkpoint(ckpt)  # no poison -> no raise
        assert checkpoint_frames(ckpt).size > 0

    @pytest.mark.parametrize("mech_name", ["cxlfork", "criu-cxl"])
    def test_poisoned_image_fails_verification(self, pod, parent, mech_name):
        RAS.enable()
        _, ckpt = _checkpointed(pod, mech_name, parent)
        frames = checkpoint_frames(ckpt)
        pod.fabric.device.frames.poison(frames[:2])
        with pytest.raises(PoisonError) as info:
            verify_checkpoint(ckpt, context="test")
        assert info.value.frames == sorted(int(f) for f in frames[:2])
        assert "test" in str(info.value)

    def test_seal_refuses_an_already_corrupt_image(self, pod, parent):
        RAS.enable()
        workload, instance = parent
        mech = get_mechanism("cxlfork", fabric=pod.fabric, cxlfs=pod.cxlfs)
        injector = FaultInjector(seed=2)
        # Poison lands mid-checkpoint: the alarm fires during the copy
        # advance, and the seal at the end of checkpoint() catches it.
        injector.poison_at(
            instance.task.node.clock,
            pod.fabric.device.frames,
            instance.task.node.clock.now + 1000,
            count=1,
        )
        with pytest.raises(PoisonError):
            mech.checkpoint(instance.task)

    def test_seal_counts_into_the_runtime(self, pod, parent):
        RAS.enable()
        seals = RAS.seals
        _checkpointed(pod, "cxlfork", parent)
        assert RAS.seals == seals + 1

    def test_checksums_off_serves_silently(self, pod, parent):
        # Control: without RAS the corrupt image restores fine — the
        # sweep's wrong-bytes column exists to make this visible.
        mech, ckpt = _checkpointed(pod, "cxlfork", parent)
        pod.fabric.device.frames.poison(checkpoint_frames(ckpt)[:1])
        result = mech.restore(ckpt, pod.target)
        assert result.task is not None


class TestRestoreTimePoints:
    @pytest.mark.parametrize("mech_name", ["cxlfork", "criu-cxl"])
    def test_restore_refuses_poisoned_image(self, pod, parent, mech_name):
        RAS.enable()
        mech, ckpt = _checkpointed(pod, mech_name, parent)
        pod.fabric.device.frames.poison(checkpoint_frames(ckpt)[:1])
        with pytest.raises(PoisonError):
            mech.restore(ckpt, pod.target)

    def test_fault_path_refuses_poisoned_frame(self, pod, parent):
        RAS.enable()
        workload, instance = parent
        mech, ckpt = _checkpointed(pod, "cxlfork", parent)
        result = mech.restore(ckpt, pod.target)  # verified clean at entry
        # Corruption lands *after* the restore: the fault path (CoW copy /
        # demand map of checkpoint frames) is the last line of defense.
        pod.fabric.device.frames.poison(ckpt.data_frames)
        child = workload.placed_plan_for(instance, result.task)
        with pytest.raises(PoisonError):
            workload.invoke(child)

    def test_replication_refuses_poisoned_source(self, pod, parent):
        RAS.enable()
        _, ckpt = _checkpointed(pod, "cxlfork", parent)
        wire_image(ckpt)  # clean encodes fine
        pod.fabric.device.frames.poison(checkpoint_frames(ckpt)[:1])
        with pytest.raises(PoisonError):
            wire_image(ckpt)
