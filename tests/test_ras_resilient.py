"""RAS end-to-end: poison pressure steers federation routing."""

import pytest

from repro.cluster import RouterConfig, build_federation
from repro.faas.traces import Request
from repro.porter.autoscaler import PorterConfig
from repro.ras import RAS


@pytest.fixture(autouse=True)
def _ras_on():
    RAS.reset()
    RAS.enable()
    yield
    RAS.reset()


def _federation(pod_count=2, **router_kwargs):
    router = build_federation(
        pod_count,
        porter_config=PorterConfig(),
        router_config=RouterConfig(**router_kwargs),
    )
    router.register_function("float")
    return router, router.membership.pods()


def _drain(queue):
    while queue.peek_time() is not None:
        queue.step()


class TestRouterSteering:
    def test_poison_pressure_steers_overflow_away(self):
        # Scale chosen so any poison at all saturates the pod's load term.
        router, pods = _federation(poison_pressure_scale=1e9)
        for pod in pods:
            pod.porter.prewarm_and_checkpoint("float")
        _drain(router.queue)
        frames = pods[0].fabric.device.frames
        held = frames.alloc_many(4)
        frames.poison(held)
        assert pods[0].poison_rate > 0
        choice = router.route(Request(when=0, function="float", request_id=1))
        assert choice.name == pods[1].name

    def test_clean_pods_route_as_before(self):
        # With no poison anywhere the new terms must not perturb placement.
        picks = []
        for _ in range(2):
            router, pods = _federation()
            pods[0].porter.prewarm_and_checkpoint("float")
            _drain(router.queue)
            picks.append(
                router.route(Request(when=0, function="float",
                                     request_id=1)).name
            )
        assert picks[0] == picks[1] == picks[0]
