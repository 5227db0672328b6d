"""repro.faults units: alarms, injection, retry policy, leak auditing."""

import numpy as np
import pytest

from repro.cxl.allocator import FrameAllocator, OutOfMemoryError
from repro.faults import (
    FaultInjector,
    InjectedCrash,
    RetryExhaustedError,
    RetryPolicy,
    audit_pod,
    call_with_retries,
)
from repro.os.kernel import NodeFailedError
from repro.sim.clock import Clock
from repro.sim.rng import SeedSequenceFactory
from repro.sim.units import MS


class TestClockAlarms:
    def test_alarm_fires_during_crossing_advance(self):
        clock = Clock()
        fired = []
        clock.at(100, lambda: fired.append(clock.now))
        clock.advance(50)
        assert fired == []
        clock.advance(100)
        # The action runs with the clock frozen at the deadline.
        assert fired == [100]
        assert clock.now == 150

    def test_cancelled_alarm_never_fires(self):
        clock = Clock()
        fired = []
        alarm = clock.at(10, lambda: fired.append(True))
        alarm.cancel()
        clock.advance(100)
        assert fired == []

    def test_alarms_fire_in_deadline_order(self):
        clock = Clock()
        order = []
        clock.at(30, lambda: order.append(30))
        clock.at(10, lambda: order.append(10))
        clock.at(20, lambda: order.append(20))
        clock.advance(100)
        assert order == [10, 20, 30]

    def test_raising_action_freezes_clock_at_deadline(self):
        clock = Clock()

        def boom():
            raise RuntimeError("crash")

        clock.at(40, boom)
        with pytest.raises(RuntimeError):
            clock.advance(100)
        assert clock.now == 40


class TestNodeFailContract:
    def test_fail_returns_killed_then_zero(self, pod):
        node = pod.source
        kernel = node.kernel
        kernel.spawn_task("a")
        kernel.spawn_task("b")
        assert node.fail() == 2
        # Idempotent by contract: every later call returns 0.
        assert node.fail() == 0
        assert node.fail() == 0

    def test_fail_quarantines_dram(self, pod):
        node = pod.source
        node.fail()
        with pytest.raises(OutOfMemoryError):
            node.dram.alloc_many(1)
        # Stale puts/gets against the dead pool are no-ops.
        node.dram.put(np.array([1, 2, 3], dtype=np.int64))
        assert node.dram.audit({}).clean

    def test_crash_hooks_run_on_fail(self, pod):
        node = pod.source
        seen = []
        node.crash_hooks.append(lambda n: seen.append(n.name))
        node.fail()
        assert seen == [node.name]
        node.fail()  # hooks run once: later calls are no-ops
        assert seen == [node.name]

    def test_kernel_entry_points_check_alive(self, pod):
        node = pod.source
        kernel = node.kernel
        task = kernel.spawn_task("t")
        vma = kernel.map_anon_region(task, 4, populate=True)
        node.fail()
        with pytest.raises(NodeFailedError):
            kernel.spawn_task("late")
        with pytest.raises(NodeFailedError):
            kernel.map_anon_region(task, 4)
        with pytest.raises(NodeFailedError):
            kernel.access_range(task, vma.start_vpn, 1, write=False)
        with pytest.raises(NodeFailedError):
            kernel.alloc_local_frames(task, 1)


class TestInjector:
    def test_crash_at_raises_injected_crash(self, pod):
        node = pod.source
        injector = FaultInjector(seed=1)
        injector.crash_at(node, node.clock.now + int(1 * MS))
        with pytest.raises(InjectedCrash):
            node.clock.advance(int(2 * MS))
        assert node.failed

    def test_injected_crash_is_a_node_failed_error(self):
        # Existing dead-node handlers must treat injected crashes alike.
        assert issubclass(InjectedCrash, NodeFailedError)

    def test_crash_now_kills_without_raising(self, pod):
        node = pod.source
        node.kernel.spawn_task("t")
        killed = FaultInjector().crash_now(node)
        assert killed == 1
        assert node.failed

    def test_cancel_all_disarms_everything(self, pod):
        node = pod.source
        injector = FaultInjector()
        injector.crash_at(node, node.clock.now + int(1 * MS))
        injector.cancel_all()
        node.clock.advance(int(5 * MS))
        assert not node.failed


class TestRetryPolicy:
    def test_delays_grow_exponentially_and_cap(self):
        policy = RetryPolicy(base_ns=100, cap_ns=1000, max_attempts=8, jitter=0.0)
        delays = [policy.delay_ns(a) for a in range(6)]
        assert delays == [100, 200, 400, 800, 1000, 1000]

    def test_jitter_is_deterministic_per_seed(self):
        policy = RetryPolicy(base_ns=1000, cap_ns=100_000, jitter=0.5)
        a = SeedSequenceFactory(7).stream("jitter")
        b = SeedSequenceFactory(7).stream("jitter")
        da = [policy.delay_ns(i, rng=a) for i in range(5)]
        db = [policy.delay_ns(i, rng=b) for i in range(5)]
        assert da == db
        # And the jitter actually perturbs the nominal delay.
        nominal = [policy.delay_ns(i) for i in range(5)]
        assert da != nominal

    def test_call_with_retries_waits_in_virtual_time(self):
        clock = Clock()
        policy = RetryPolicy(base_ns=100, cap_ns=1000, max_attempts=4, jitter=0.0)
        attempts = []

        pool = FrameAllocator("oom", base=0, capacity_frames=1)

        def flaky():
            attempts.append(clock.now)
            if len(attempts) < 3:
                raise OutOfMemoryError(pool, 4)
            return "ok"

        result = call_with_retries(
            flaky, policy=policy, clock=clock, retry_on=(OutOfMemoryError,)
        )
        assert result == "ok"
        assert attempts == [0, 100, 300]  # backoff 100 then 200

    def test_retries_exhaust_with_last_error(self):
        clock = Clock()
        policy = RetryPolicy(base_ns=10, cap_ns=100, max_attempts=3, jitter=0.0)

        pool = FrameAllocator("oom", base=0, capacity_frames=1)

        def always_oom():
            raise OutOfMemoryError(pool, 4)

        with pytest.raises(RetryExhaustedError) as info:
            call_with_retries(
                always_oom, policy=policy, clock=clock, retry_on=(OutOfMemoryError,)
            )
        assert info.value.attempts == 3
        assert isinstance(info.value.last, OutOfMemoryError)

    def test_non_retryable_errors_propagate_immediately(self):
        clock = Clock()

        def dead():
            raise NodeFailedError("gone")

        with pytest.raises(NodeFailedError):
            call_with_retries(
                dead,
                policy=RetryPolicy(),
                clock=clock,
                retry_on=(OutOfMemoryError,),
            )
        assert clock.now == 0  # no backoff was paid


class TestLeakAudit:
    def test_clean_pool_audits_clean(self):
        pool = FrameAllocator("a", base=0, capacity_frames=16)
        frames = pool.alloc_many(4)
        expected = {int(f): 1 for f in frames}
        report = pool.audit(expected)
        assert report.clean
        assert report.leaked_frames == 0

    def test_leak_detected(self):
        pool = FrameAllocator("a", base=0, capacity_frames=16)
        frames = pool.alloc_many(3)
        report = pool.audit({})  # no owner claims them -> leaked
        assert not report.clean
        assert report.leaked_frames == 3
        assert sorted(report.leaked) == sorted(int(f) for f in frames)

    def test_refcount_mismatch_detected(self):
        pool = FrameAllocator("a", base=0, capacity_frames=16)
        frames = pool.alloc_many(1)
        pool.get(frames)  # refcount 2
        report = pool.audit({int(frames[0]): 1})
        assert not report.clean
        assert report.mismatched == {int(frames[0]): (2, 1)}

    def test_missing_frame_detected(self):
        pool = FrameAllocator("a", base=0, capacity_frames=16)
        report = pool.audit({5: 1})  # owner claims a frame the pool freed
        assert not report.clean
        assert report.missing == [5]

    def test_quarantined_pool_audits_clean(self):
        pool = FrameAllocator("a", base=0, capacity_frames=16)
        pool.alloc_many(8)
        pool.quarantine()
        assert pool.audit({}).clean

    def test_pod_audit_tracks_task_frames(self, pod):
        kernel = pod.source.kernel
        task = kernel.spawn_task("t")
        kernel.map_anon_region(task, 32, populate=True)
        assert audit_pod(pod.fabric, pod.nodes, cxlfs=pod.cxlfs).clean
        kernel.exit_task(task)
        assert audit_pod(pod.fabric, pod.nodes, cxlfs=pod.cxlfs).clean
