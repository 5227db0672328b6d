"""CXLporter components: object store, ghost pools, keep-alive, controller."""

import pytest

from repro.porter.ghostpool import GhostContainerPool
from repro.porter.keepalive import KeepAlivePolicy
from repro.porter.metrics import LatencyRecorder
from repro.porter.objectstore import CheckpointObjectStore
from repro.porter.tiering_controller import TieringController
from repro.sim.units import SEC
from repro.tiering.mow import MigrateOnWrite


@pytest.fixture
def checkpoint(checkpointed):
    _, _, _, ckpt, _ = checkpointed
    return ckpt


class TestObjectStore:
    def test_put_and_query(self, pod, checkpoint):
        store = CheckpointObjectStore(pod.fabric)
        entry = store.put("u", "float", checkpoint, mechanism="cxlfork", now=5)
        found = store.query("u", "float", now=9)
        assert found is entry
        assert found.last_used_at == 9
        assert found.restores == 1

    def test_miss_returns_none(self, pod):
        store = CheckpointObjectStore(pod.fabric)
        assert store.query("u", "nope") is None

    def test_replace_deletes_old(self, pod, checkpoint):
        store = CheckpointObjectStore(pod.fabric)
        store.put("u", "float", checkpoint, mechanism="cxlfork")

        class FakeCkpt:
            cxl_bytes = 0
            deleted = False

            def delete(self):
                self.deleted = True

        replacement = FakeCkpt()
        store.put("u", "float", replacement, mechanism="cxlfork")
        assert checkpoint._deleted  # old storage released
        assert len(store) == 1

    def test_reclaim_lru(self, pod, checkpoint):
        store = CheckpointObjectStore(pod.fabric)
        store.put("u", "float", checkpoint, mechanism="cxlfork", now=1)
        freed = store.reclaim(1)
        assert freed >= checkpoint.cxl_bytes
        assert len(store) == 0

    def test_evict_unknown(self, pod):
        store = CheckpointObjectStore(pod.fabric)
        with pytest.raises(KeyError):
            store.evict(42)


class TestGhostPool:
    def test_provision_reserves_memory(self, node0):
        pool = GhostContainerPool(node0, per_function=3)
        used_before = node0.dram_used_bytes
        created = pool.provision("float")
        assert created == 3
        assert node0.dram_used_bytes - used_before == 3 * 512 * 1024

    def test_acquire_release_cycle(self, node0):
        pool = GhostContainerPool(node0, per_function=2)
        pool.provision("float")
        ghost = pool.acquire("float")
        assert ghost is not None
        assert pool.free_count("float") == 1
        pool.release(ghost)
        assert pool.free_count("float") == 2

    def test_empty_pool_returns_none(self, node0):
        pool = GhostContainerPool(node0)
        assert pool.acquire("unknown") is None

    def test_provision_idempotent(self, node0):
        pool = GhostContainerPool(node0, per_function=2)
        pool.provision("float")
        assert pool.provision("float") == 0


class TestKeepAlive:
    def test_normal_window_when_calm(self, node0):
        policy = KeepAlivePolicy()
        assert policy.window_ns(node0) == policy.normal_window_ns

    def test_short_window_under_pressure(self, node0):
        policy = KeepAlivePolicy(pressure_threshold=0.0000001)
        node0.dram.alloc_many(10)
        assert policy.window_ns(node0) == 10 * SEC

    def test_expiry(self, node0):
        policy = KeepAlivePolicy()
        assert policy.expiry(node0, 100) == 100 + policy.normal_window_ns

    def test_validation(self):
        with pytest.raises(ValueError):
            KeepAlivePolicy(normal_window_ns=1, pressured_window_ns=2)
        with pytest.raises(ValueError):
            KeepAlivePolicy(pressure_threshold=0.0)


class TestTieringController:
    def test_default_policy_is_mow(self, node0):
        controller = TieringController()
        policy = controller.policy_for("float", node0)
        assert policy.name == "mow"

    def test_promotion_on_slo_violation(self, node0):
        controller = TieringController()
        for _ in range(16):
            controller.record_latency("bert", slo_ns=100.0, latency_ns=200.0)
        policy = controller.policy_for("bert", node0)
        assert policy.name == "hybrid"
        assert controller.is_promoted("bert")

    def test_no_promotion_past_highmem(self, node0):
        controller = TieringController(highmem_threshold=0.0000001)
        node0.dram.alloc_many(10)
        for _ in range(16):
            controller.record_latency("bert", slo_ns=100.0, latency_ns=200.0)
        assert controller.policy_for("bert", node0).name == "mow"

    def test_static_policy_pins(self, node0):
        controller = TieringController(static_policy=MigrateOnWrite())
        for _ in range(16):
            controller.record_latency("bert", slo_ns=1.0, latency_ns=999.0)
        assert controller.policy_for("bert", node0).name == "mow"
        assert not controller.evaluate("bert", node0)

    def test_refresh_hot_sets(self, pod, checkpoint):
        from repro.tiering.hotness import count_access_bits

        controller = TieringController()

        class Entry:
            def __init__(self, ckpt):
                self.checkpoint = ckpt

        cost = controller.refresh_hot_sets([Entry(checkpoint)])
        assert cost > 0
        assert count_access_bits(checkpoint.pagetable)[0] == 0


class TestLatencyRecorder:
    def test_percentiles(self):
        recorder = LatencyRecorder()
        for i in range(100):
            recorder.record("f", float(i + 1) * 1e6)
        assert recorder.p50_ms("f") == pytest.approx(50.5, rel=0.05)
        assert recorder.p99_ms("f") >= 99.0

    def test_aggregate_across_functions(self):
        recorder = LatencyRecorder()
        recorder.record("a", 1e6)
        recorder.record("b", 3e6)
        assert recorder.count() == 2
        assert recorder.p50_ms() == pytest.approx(2.0)

    def test_kind_counts(self):
        recorder = LatencyRecorder()
        recorder.record("a", 1.0, kind="cold")
        recorder.record("a", 1.0, kind="warm")
        recorder.record("b", 1.0, kind="warm")
        assert recorder.start_kind_counts() == {"cold": 1, "warm": 2}

    def test_empty(self):
        recorder = LatencyRecorder()
        assert recorder.p99_ms() is None
        assert recorder.count("missing") == 0
