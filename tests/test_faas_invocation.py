"""Invocation engine: touch masks, warm/cold behaviour, cache effects."""

import pytest

from repro.faas.invocation import touch_mask
from repro.faas.workload import FunctionWorkload


class TestTouchMask:
    def test_fraction_respected(self):
        mask = touch_mask(1000, 0.3)
        assert int(mask.sum()) == 300

    def test_stable_core_across_invocations(self):
        a = touch_mask(1000, 0.5, invocation_index=0)
        b = touch_mask(1000, 0.5, invocation_index=7)
        overlap = int((a & b).sum()) / int(a.sum())
        assert overlap >= 0.75  # the hot core persists

    def test_tail_varies_with_invocation(self):
        a = touch_mask(1000, 0.5, invocation_index=0)
        b = touch_mask(1000, 0.5, invocation_index=7)
        assert (a != b).any()

    def test_full_fraction(self):
        assert touch_mask(100, 1.0).all()

    def test_zero_fraction(self):
        assert not touch_mask(100, 0.0).any()

    def test_empty(self):
        assert touch_mask(0, 0.5).size == 0

    def test_deterministic(self):
        assert (touch_mask(500, 0.4, 3) == touch_mask(500, 0.4, 3)).all()


class TestWarmExecution:
    @pytest.fixture
    def warm(self, pod):
        workload = FunctionWorkload("json")
        instance = workload.build_instance(pod.source)
        workload.season(instance)
        return workload, instance

    def test_warm_invocation_no_faults_on_core(self, warm):
        workload, instance = warm
        result = workload.invoke(instance)
        # A seasoned instance faults at most on the fresh tail.
        assert result.fault_stats.total_faults < result.touched_pages * 0.3

    def test_wall_time_composition(self, warm):
        workload, instance = warm
        result = workload.invoke(instance)
        assert result.wall_ns == pytest.approx(
            result.fault_ns + result.access_ns + result.compute_ns
        )
        assert result.compute_ns == workload.spec.compute_ns

    def test_clock_advances_by_wall_minus_nothing(self, pod, warm):
        workload, instance = warm
        before = pod.source.clock.now
        result = workload.invoke(instance)
        assert pod.source.clock.now - before == pytest.approx(
            result.wall_ns, rel=0.01
        )

    def test_small_function_cache_resident(self, warm):
        workload, instance = warm
        result = workload.invoke(instance)
        assert result.reaccess_misses == 0  # fits in L3

    def test_touched_pages_match_plan(self, warm, touched_bytes):
        workload, instance = warm
        result = workload.invoke(instance)
        expected = touched_bytes(workload.spec) / 4096
        assert result.touched_pages == pytest.approx(expected, rel=0.1)


class TestCacheBoundFunctions:
    def test_bert_misses_in_cache(self, pod):
        workload = FunctionWorkload("bert")
        instance = workload.build_instance(pod.source)
        workload.season(instance)
        result = workload.invoke(instance)
        assert result.reaccess_misses > 0

    def test_warm_local_faster_than_warm_cxl(self):
        """MoW keeps read-only data on CXL; warm time must suffer for
        cache-exceeding functions (Fig. 8b)."""
        from repro.experiments.common import make_pod
        from repro.rfork.cxlfork import CxlFork

        pod = make_pod()
        workload = FunctionWorkload("bert")
        instance = workload.build_instance(pod.source)
        workload.season(instance)
        local_warm = workload.invoke(instance).wall_ns

        ckpt, _ = CxlFork().checkpoint(instance.task)
        restored = CxlFork().restore(ckpt, pod.target)
        child = workload.placed_plan_for(instance, restored.task)
        workload.invoke(child)  # cold
        cxl_warm = workload.invoke(child).wall_ns
        assert cxl_warm > 1.2 * local_warm
