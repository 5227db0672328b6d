"""The global router: two-level scheduling across federated CXL pods.

Level one picks a *pod* for each invocation; level two is the chosen
pod's own CXLporter, which picks a node exactly as it does standalone.
The router never reaches past the pod boundary — intra-pod placement,
keep-alive, tiering, and node crashes all stay the pod's business
(§8's "global scheduler" sketched over the per-pod autoscaler of §5).

Pod choice weighs three signals, in deterministic join order:

* **locality** — a pod with an idle warm instance serves warm; a pod
  holding the checkpoint in its object store serves a CXL-local restore;
* **load** — instances running vs. aggregate CPU slots;
* **capacity** — free CXL bytes for new checkpoints / restores.

A request routed to a pod without the image either cold-starts there or,
under the pull-on-miss policy, triggers a mitosis-style ship-and-restore
*off* the critical path: the request itself is served by the pod that
holds the image while the image is pulled over the interconnect and
materialized into the chosen pod's object store, so every later
invocation routed there restores CXL-locally.

Failure handling composes the two levels: a pod whose porter gives up on
a request (node exhaustion, memory-retry exhaustion) offers it back via
the porter's ``drop_handler`` and the router re-routes it to another live
pod — up to ``max_reroutes`` times, so a globally-sick cluster still
terminates.  A failed pod leaves the routing targets
(:mod:`repro.cluster.membership`); routing with *no* live pod left
raises :class:`~repro.exceptions.FederationExhaustedError`, which is
deliberately distinct from a single pod's
:class:`~repro.exceptions.PodExhaustedError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.cluster.interconnect import Interconnect, LinkSpec
from repro.cluster.membership import PodHandle, PodMembership
from repro.cluster.replication import Replicator
from repro.exceptions import FederationExhaustedError
from repro.faas.traces import Request
from repro.porter.autoscaler import CONTROLLER_TICK_NS
from repro.porter.metrics import LatencyRecorder
from repro.sim.events import EventQueue
from repro.sim.units import SEC
from repro.telemetry import TRACE

_REPLICATION_POLICIES = ("none", "pull", "push")

#: Routing weights (score units are arbitrary; only order matters).
WARM_WEIGHT = 100.0
LOCALITY_WEIGHT = 50.0
LOAD_WEIGHT = 20.0
CAPACITY_WEIGHT = 5.0


@dataclass
class RouterConfig:
    """Tunables of the federation layer."""

    #: Inter-pod link technology ("rdma", "ethernet", or a LinkSpec).
    link: "str | LinkSpec" = "rdma"
    #: When images cross pods: "none" (miss → cold start), "pull"
    #: (ship-and-restore on miss), "push" (eager fan-out at prewarm,
    #: plus pull on any remaining miss).
    replication: str = "pull"
    #: Pods (beyond the home pod) that eagerly receive each image under
    #: the push policy; 0 means push everywhere.
    push_fanout: int = 0
    #: RAS steering: a pod's poison rate folds into its pressure, scaled
    #: so 2% of the device poisoned reads as a fully loaded pod (the
    #: two-level scheduler then overflows away from the decaying device).
    poison_pressure_scale: float = 50.0
    #: Times a request may bounce between pods before its last pod
    #: records it as failed.
    max_reroutes: int = 2
    user: str = "tenant0"

    def __post_init__(self) -> None:
        if self.replication not in _REPLICATION_POLICIES:
            raise ValueError(
                f"replication must be one of {_REPLICATION_POLICIES}, "
                f"got {self.replication!r}"
            )
        if self.max_reroutes < 0:
            raise ValueError(f"max_reroutes must be >= 0: {self.max_reroutes}")
        if self.poison_pressure_scale < 0:
            raise ValueError(
                f"poison_pressure_scale must be >= 0: {self.poison_pressure_scale}"
            )


@dataclass
class RoutingStats:
    """Where requests went and why."""

    routed: int = 0
    warm_hits: int = 0
    locality_hits: int = 0
    misses: int = 0
    pulls: int = 0
    reroutes: int = 0
    per_pod: dict = field(default_factory=dict)


class ClusterRouter:
    """Routes a shared trace across many pods on one virtual timeline."""

    def __init__(
        self,
        pods: list,
        queue: EventQueue,
        *,
        config: Optional[RouterConfig] = None,
    ) -> None:
        if not pods:
            raise ValueError("a federation needs at least one pod")
        self.queue = queue
        self.config = config or RouterConfig()
        self.membership = PodMembership()
        for pod in pods:
            if pod.porter is None:
                raise ValueError(f"pod {pod.name!r} has no porter deployment")
            if pod.porter.queue is not self.queue:
                raise ValueError(
                    f"pod {pod.name!r}'s porter runs on a different event "
                    "queue; federated pods must share the router's clock"
                )
            self.membership.join(pod)
            pod.porter.drop_handler = (
                lambda request, reason, p=pod: self._reroute(p, request, reason)
            )
        self.interconnect = Interconnect(self.config.link)
        self.replicator = Replicator(
            self.interconnect, queue, user=self.config.user
        )
        self.stats = RoutingStats(
            per_pod={pod.name: 0 for pod in pods}
        )
        self._reroutes: dict[int, int] = {}
        #: One-way router → pod dispatch latency (control message).
        self._dispatch_ns = int(self.interconnect.spec.latency_ns)

    # -- function lifecycle ------------------------------------------------------

    def register_function(self, workload) -> None:
        """Register on every pod (the trace may route anywhere)."""
        for pod in self.membership.pods():
            pod.porter.register_function(workload)

    def prewarm(self, function: str, *, home: Optional[str] = None):
        """Checkpoint ``function`` on its home pod; push replicas if the
        policy says so.  Returns the home pod's store entry."""
        pods = self.membership.pods()
        home_pod = self.membership.pod(home) if home is not None else pods[0]
        entry = home_pod.porter.prewarm_and_checkpoint(function)
        if self.config.replication == "push":
            targets = [p for p in self.membership.live_pods() if p is not home_pod]
            if self.config.push_fanout > 0:
                targets = targets[: self.config.push_fanout]
            for target in targets:
                self.replicator.ship(function, home_pod, target)
        return entry

    # -- routing -----------------------------------------------------------------

    def route(self, request: Request) -> PodHandle:
        """Pick the pod for one invocation (pure decision, no dispatch)."""
        live = self.membership.live_pods()
        if not live:
            raise FederationExhaustedError(
                "every pod in the federation is down"
            )
        best, best_score = None, None
        for pod in live:  # join order → deterministic tie-break
            score = self._score(pod, request.function)
            if best_score is None or score > best_score:
                best, best_score = pod, score
        return best

    def _score(self, pod: PodHandle, function: str) -> float:
        cfg = self.config
        porter = pod.porter
        score = 0.0
        slots = porter.total_slots()
        load = pod.running() / slots if slots > 0 else 1.0
        # §8: per-pod CXL bandwidth saturates long before CPU slots do,
        # so pressure is the max of the two — a pod whose device is at
        # the knee of the 1/(1-ρ) curve is as "full" as one out of slots.
        bandwidth = getattr(pod.fabric, "bandwidth", None)
        if bandwidth is not None and bandwidth.capacity_gbps > 0:
            bw_load = bandwidth.offered_gbps / bandwidth.capacity_gbps
            load = max(load, min(bw_load, 2.0))
        # RAS steering: a decaying device is pressure too.  Zero-cost and
        # score-neutral while the pod is poison-free (the common case).
        poison = getattr(pod, "poison_rate", 0.0)
        if poison > 0.0:
            load = max(load, min(poison * cfg.poison_pressure_scale, 2.0))
        # A warm instance (or a local image) behind a saturated pod is
        # not warm: the request would just wait out the queueing.  Scale
        # the affinity bonuses by headroom so a full home pod overflows
        # to idle pods, which pull the image and absorb the burst — the
        # mechanism that splits offered load across devices.
        headroom = max(0.0, 1.0 - load)
        if porter.warm_idle_count(function) > 0:
            score += WARM_WEIGHT * headroom
        if porter.store.contains(cfg.user, function):
            score += LOCALITY_WEIGHT * headroom
        score -= LOAD_WEIGHT * load
        if slots > 0:
            score += CAPACITY_WEIGHT * (
                pod.free_cxl_bytes() / max(pod.fabric.device.capacity_bytes, 1)
            )
        return score

    def submit(self, request: Request) -> None:
        """Route one request and dispatch it (arrival-event entry point)."""
        pod = self.route(request)
        self.stats.routed += 1
        self.stats.per_pod[pod.name] = self.stats.per_pod.get(pod.name, 0) + 1
        function = request.function
        if pod.porter.warm_idle_count(function) > 0:
            self.stats.warm_hits += 1
        has_image = pod.porter.store.contains(self.config.user, function)
        if has_image:
            self.stats.locality_hits += 1
        if TRACE.active():
            TRACE.count("cluster.routed")
            TRACE.add_span(
                "cluster.route", self.queue.now, self._dispatch_ns,
                function=function, pod=pod.name,
            )
        if not has_image and self.config.replication != "none":
            holder = self._image_holder(function, exclude=pod)
            self.stats.misses += 1
            if holder is not None:
                # Mitosis-style ship-and-restore, but never on the
                # critical path: this request routes *to the data* (the
                # holder pod) while the image ships to the chosen pod in
                # the background — the rest of the burst restores
                # CXL-locally there once the replica lands.
                self.stats.pulls += 1
                self.replicator.ship(function, holder, pod)
                self._deliver(holder, request)
                return
        elif not has_image:
            self.stats.misses += 1
        self._deliver(pod, request)

    def _image_holder(
        self, function: str, *, exclude: PodHandle
    ) -> Optional[PodHandle]:
        for pod in self.membership.live_pods():
            if pod is not exclude and pod.porter.store.contains(
                self.config.user, function
            ):
                return pod
        return None

    def _deliver(self, pod: PodHandle, request: Request) -> None:
        """Hand the request to the pod's porter after the control hop."""
        self.queue.schedule_after(
            self._dispatch_ns,
            lambda: self._pod_submit(pod, request),
            label=f"dispatch:{pod.name}",
        )

    def _pod_submit(self, pod: PodHandle, request: Request) -> None:
        if pod.failed:
            # Died between routing and delivery: route again elsewhere.
            self._resubmit(request)
            return
        pod.porter.submit(request)

    def _resubmit(self, request: Request) -> None:
        try:
            self.submit(request)
        except FederationExhaustedError:
            self._record_lost(request)

    # -- failure paths -----------------------------------------------------------

    def _reroute(self, pod: PodHandle, request: Request, reason: str) -> bool:
        """Porter drop hook: take the request back and try another pod.

        Returning False leaves the drop with the pod (it records the
        failure); True means the federation owns the request now.
        """
        attempts = self._reroutes.get(id(request), 0)
        others = [
            p for p in self.membership.live_pods() if p is not pod
        ]
        if attempts >= self.config.max_reroutes or not others:
            self._reroutes.pop(id(request), None)
            return False
        self._reroutes[id(request)] = attempts + 1
        self.stats.reroutes += 1
        if TRACE.active():
            TRACE.count("cluster.reroutes")
            TRACE.count(f"cluster.reroutes.{reason}")
        best, best_score = None, None
        for candidate in others:
            score = self._score(candidate, request.function)
            if best_score is None or score > best_score:
                best, best_score = candidate, score
        self._deliver(best, request)
        return True

    def _record_lost(self, request: Request) -> None:
        """No live pod anywhere: account the request on any recorder so
        trace replay still terminates (mirrors the porter's ``failed``)."""
        self._reroutes.pop(id(request), None)
        recorder = self.membership.pods()[0].porter.metrics
        recorder.record(
            request.function, self.queue.now - request.when, kind="failed"
        )
        TRACE.count("cluster.requests_lost")

    # -- the drive loop ----------------------------------------------------------

    def total_count(self) -> int:
        return sum(p.porter.metrics.count() for p in self.membership.pods())

    def recorders(self) -> list:
        return [p.porter.metrics for p in self.membership.pods()]

    def merged_metrics(self) -> LatencyRecorder:
        """One recorder combining every pod's, for cluster-wide stats."""
        merged = LatencyRecorder()
        for recorder in self.recorders():
            for function in recorder.functions():
                histogram = recorder.histogram(function)
                kinds = recorder.kinds(function)
                for value, kind in zip(histogram.to_numpy(), kinds):
                    merged.record(function, float(value), kind=kind)
        return merged

    def run(self, requests: list, *, until: Optional[int] = None) -> None:
        """Replay a shared trace across the federation to completion."""
        for request in requests:
            self.queue.schedule(
                request.when, lambda r=request: self.submit(r), label="arrival"
            )
        for pod in self.membership.pods():
            self.queue.schedule_after(
                CONTROLLER_TICK_NS, pod.porter._controller_tick
            )
        horizon = until
        if horizon is None:
            horizon = (max(r.when for r in requests) if requests else 0) + 120 * SEC
        while True:
            pending = self.queue.peek_time()
            if pending is None or pending > horizon:
                break
            self.queue.step()
            if until is None and self.total_count() >= len(requests):
                break


__all__ = ["ClusterRouter", "RouterConfig", "RoutingStats"]
