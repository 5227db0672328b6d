"""Porter resilience: node crashes, scheduler filtering, and memory retries."""

import pytest

from repro.faas.traces import Request
from repro.faults import FaultInjector
from repro.porter.autoscaler import MEMORY_RETRY_CAP_NS, CxlPorter, PorterConfig
from repro.porter.scheduler import PodExhaustedError
from repro.sim.units import GIB, MS, SEC


@pytest.fixture
def trio():
    """A three-node porter pod (cxlfork arm)."""
    from repro.cxl.topology import PodTopology

    fabric, nodes = PodTopology.paper_testbed(
        dram_bytes=8 * GIB, cxl_bytes=16 * GIB, cpu_count=8, node_count=3
    ).build()
    config = PorterConfig(mechanism="cxlfork")
    porter = CxlPorter(nodes, fabric, config=config)
    return porter, fabric, nodes


def requests_for(fn, times_s, *, start_id=0):
    return [
        Request(when=int(t * SEC), function=fn, request_id=start_id + i)
        for i, t in enumerate(times_s)
    ]


class TestSchedulerFiltering:
    def test_failed_nodes_never_picked(self, trio):
        porter, _, nodes = trio
        scheduler = porter.scheduler
        nodes[0].fail()
        for _ in range(8):
            assert scheduler.pick_for_start(lambda n: 0) is not nodes[0]

    def test_all_failed_raises_cluster_exhausted(self, trio):
        porter, _, nodes = trio
        for node in nodes:
            node.fail()
        with pytest.raises(PodExhaustedError):
            porter.scheduler.pick_for_start(lambda n: 0)


class TestFailover:
    def test_crash_mid_trace_all_requests_served(self, trio):
        porter, fabric, nodes = trio
        porter.register_function("json")
        porter.prewarm_and_checkpoint("json", node=nodes[0])
        reqs = requests_for("json", [0.2 * i for i in range(30)])
        injector = FaultInjector(seed=7)
        victim = nodes[1]
        porter.queue.schedule(
            int(2 * SEC), lambda: injector.crash_now(victim), label="crash"
        )
        metrics = porter.run(reqs)
        assert metrics.count() == len(reqs)
        assert metrics.start_kind_counts().get("failed", 0) == 0
        assert porter.audit_leaks().clean

    def test_crash_node_holding_checkpoint(self, trio):
        """Losing the ghost-template node must not lose the checkpoint."""
        porter, fabric, nodes = trio
        porter.register_function("json")
        porter.prewarm_and_checkpoint("json", node=nodes[0])
        injector = FaultInjector(seed=7)
        porter.queue.schedule(
            int(1 * SEC), lambda: injector.crash_now(nodes[0]), label="crash"
        )
        reqs = requests_for("json", [0.5 * i for i in range(12)])
        metrics = porter.run(reqs)
        assert metrics.count() == len(reqs)
        # The CXL-resident checkpoint survived its creator (§3.1).
        assert porter.store.contains(porter.config.user, "json")
        assert porter.audit_leaks().clean

    def test_whole_cluster_death_drops_remaining_requests(self, trio):
        porter, fabric, nodes = trio
        porter.register_function("json")
        porter.prewarm_and_checkpoint("json", node=nodes[0])
        injector = FaultInjector(seed=5)

        def kill_all():
            for node in nodes:
                injector.crash_now(node)

        porter.queue.schedule(int(1 * SEC), kill_all, label="blackout")
        reqs = requests_for("json", [0.5 * i for i in range(10)])
        metrics = porter.run(reqs)
        # The loop still terminates: unservable requests are recorded as
        # failed rather than spinning forever against a dead cluster.
        assert metrics.count() == len(reqs)
        kinds = metrics.start_kind_counts()
        assert kinds.get("failed", 0) >= 1
        assert kinds.get("failed", 0) < len(reqs)  # some ran before the blackout
        assert porter.audit_leaks().clean


class TestRetryBackoff:
    def test_retry_delays_grow_and_jitter(self, trio):
        porter, _, _ = trio
        policy = porter.retry_policy
        assert policy.base_ns == porter.config.memory_retry_ns
        assert policy.cap_ns == MEMORY_RETRY_CAP_NS
        nominal = [policy.delay_ns(a) for a in range(10)]
        assert nominal[1] == 2 * nominal[0]
        assert max(nominal) == policy.cap_ns
        jittered = [policy.delay_ns(a, rng=porter._retry_rng) for a in range(10)]
        assert jittered != nominal  # deterministic jitter is applied

    def test_exhausted_retries_fail_the_request(self):
        """A restore that never stops OOMing is dropped after max retries."""
        from repro.cxl.topology import PodTopology
        from repro.cxl.allocator import OutOfMemoryError

        fabric, nodes = PodTopology.paper_testbed(
            dram_bytes=8 * GIB, cxl_bytes=16 * GIB, cpu_count=8, node_count=2
        ).build()
        config = PorterConfig(
            mechanism="cxlfork", max_memory_retries=2, memory_retry_ns=int(1 * MS)
        )
        porter = CxlPorter(nodes, fabric, config=config)
        porter.register_function("json")
        porter.prewarm_and_checkpoint("json", node=nodes[0])
        attempts = []

        def always_oom(checkpoint, node, **kw):
            attempts.append(porter.queue.now)
            raise OutOfMemoryError(node.dram.name, 1, 0, node.dram.capacity_frames)

        porter.mechanism.restore = always_oom
        metrics = porter.run(requests_for("json", [0.0]))
        assert metrics.start_kind_counts() == {"failed": 1}
        # First try plus max_memory_retries re-tries, spaced by the backoff.
        assert len(attempts) == 1 + config.max_memory_retries
        gaps = [b - a for a, b in zip(attempts, attempts[1:])]
        assert gaps == sorted(gaps)  # exponential: delays never shrink
