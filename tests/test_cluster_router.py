"""Global router: deterministic placement, failover, exhaustion types."""

import pytest

from repro.cluster import PodMembership, RouterConfig, build_federation
from repro.exceptions import (
    ExhaustionError,
    FederationExhaustedError,
    PodExhaustedError,
)
from repro.faas.traces import Request
from repro.porter.autoscaler import PorterConfig
from repro.sim.events import EventQueue
from repro.sim.units import MS


def federation(pod_count=3, **router_kwargs):
    router = build_federation(
        pod_count,
        porter_config=PorterConfig(),
        router_config=RouterConfig(**router_kwargs),
    )
    router.register_function("float")
    return router, router.membership.pods()


def drain(queue):
    while queue.peek_time() is not None:
        queue.step()


class TestExhaustionTypes:
    def test_pod_vs_federation_are_distinct(self):
        """A pod running out is recoverable by the router; the whole
        federation running out is not — the types must not be conflated."""
        assert not issubclass(FederationExhaustedError, PodExhaustedError)
        assert not issubclass(PodExhaustedError, FederationExhaustedError)
        assert issubclass(PodExhaustedError, ExhaustionError)
        assert issubclass(FederationExhaustedError, ExhaustionError)

    def test_route_with_all_pods_down_raises_federation_exhausted(self):
        router, pods = federation()
        for pod in pods:
            pod.fail()
        with pytest.raises(FederationExhaustedError):
            router.route(Request(when=0, function="float", request_id=1))


class TestRouting:
    def test_routing_is_deterministic(self):
        """Two identical federations route an identical request stream
        to identically-named pods."""
        requests = [
            Request(when=i * int(MS), function="float", request_id=i)
            for i in range(12)
        ]
        picks = []
        for _ in range(2):
            router, pods = federation()
            pods[0].porter.prewarm_and_checkpoint("float")
            drain(router.queue)
            picks.append([router.route(r).name for r in requests])
        assert picks[0] == picks[1]

    def test_locality_attracts_when_unloaded(self):
        router, pods = federation()
        pods[1].porter.prewarm_and_checkpoint("float")
        drain(router.queue)
        choice = router.route(Request(when=0, function="float", request_id=1))
        assert choice.name == pods[1].name

    def test_failed_pod_never_chosen(self):
        router, pods = federation()
        pods[0].porter.prewarm_and_checkpoint("float")
        drain(router.queue)
        pods[0].fail()
        choice = router.route(Request(when=0, function="float", request_id=1))
        assert choice.name != pods[0].name

    def test_push_prewarm_replicates_everywhere(self):
        router, pods = federation(replication="push")
        router.prewarm("float", home=pods[0].name)
        drain(router.queue)
        assert all(p.store.contains("tenant0", "float") for p in pods)
        assert router.replicator.stats.ships == len(pods) - 1

    def test_push_fanout_limits_targets(self):
        router, pods = federation(replication="push", push_fanout=1)
        router.prewarm("float", home=pods[0].name)
        drain(router.queue)
        holders = [p for p in pods if p.store.contains("tenant0", "float")]
        assert len(holders) == 2  # home + exactly one pushed replica


class TestReroute:
    def test_drop_comes_back_to_another_pod(self):
        router, pods = federation()
        request = Request(when=0, function="float", request_id=7)
        taken = router._reroute(pods[0], request, "node-exhausted")
        assert taken is True
        assert router.stats.reroutes == 1
        drain(router.queue)
        # The request completed somewhere that is not the dropping pod.
        assert router.total_count() == 1
        assert pods[0].porter.metrics.count() == 0

    def test_reroute_budget_exhausts(self):
        router, pods = federation(max_reroutes=0)
        request = Request(when=0, function="float", request_id=7)
        assert router._reroute(pods[0], request, "node-exhausted") is False

    def test_no_other_live_pod_keeps_the_drop(self):
        router, pods = federation(pod_count=2)
        pods[1].fail()
        request = Request(when=0, function="float", request_id=7)
        assert router._reroute(pods[0], request, "node-exhausted") is False


class TestConfigValidation:
    def test_bad_replication_policy(self):
        with pytest.raises(ValueError):
            RouterConfig(replication="gossip")

    def test_negative_reroutes(self):
        with pytest.raises(ValueError):
            RouterConfig(max_reroutes=-1)

    def test_foreign_queue_rejected(self):
        router, pods = federation()
        pods[0].porter.queue = EventQueue()
        from repro.cluster import ClusterRouter

        with pytest.raises(ValueError):
            ClusterRouter(pods, router.queue)


class TestMembership:
    def test_pod_failed_when_all_nodes_fail(self):
        _, pods = federation(pod_count=1)
        pod = pods[0]
        assert not pod.failed
        for node in pod.nodes:
            node.fail()
        assert pod.failed

    def test_join_and_live(self):
        _, pods = federation(pod_count=3)
        membership = PodMembership()
        for pod in pods:
            membership.join(pod)
        assert [p.name for p in membership.pods()] == [p.name for p in pods]
        pods[1].fail()
        assert pods[1] not in membership.live_pods()
