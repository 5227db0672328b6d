"""CXLporter: the autoscaler control loop (§5).

Drives a pod through an invocation trace on a discrete-event queue:

* request arrival → warm instance reuse, or restore-from-checkpoint into a
  ghost container (full container for CRIU, which cannot use ghosts), or a
  full cold start;
* node CPU slots bound concurrent executions; per-node FIFOs absorb bursts;
* memory pressure triggers idle-instance eviction (keep-alive shortening)
  and blocks tiering promotions past the HighMem threshold;
* per-function checkpoint protocol: clear A/D after the first invocation,
  checkpoint after the 16th (Pronghorn-style JIT warm-up, §5).

Time bookkeeping: the event queue is the master clock.  Work executed on a
node measures its *duration* with the node's virtual clock (kernel costs,
faults, cache misses all accrue there) and completion events land at
``queue.now + duration``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.cxl.allocator import OutOfMemoryError
from repro.faas.container import ContainerFactory
from repro.faas.traces import Request
from repro.faas.workload import FunctionInstance, FunctionWorkload
from repro.faults.recovery import RetryPolicy
from repro.os.kernel import NodeFailedError
from repro.os.node import ComputeNode
from repro.os.proc.task import TaskState
from repro.porter.ghostpool import GhostContainerPool
from repro.porter.keepalive import KeepAlivePolicy
from repro.porter.metrics import LatencyRecorder
from repro.porter.objectstore import LOOKUP_NS, CheckpointObjectStore
from repro.porter.scheduler import ClusterScheduler, PodExhaustedError
from repro.porter.tiering_controller import TieringController
from repro.rfork.registry import get_mechanism
from repro.sim.events import EventQueue
from repro.sim.rng import SeedSequenceFactory
from repro.sim.units import MS, SEC
from repro.telemetry import TRACE
from repro.tiering.hotness import reset_access_bits
from repro.tiering.mow import MigrateOnWrite

#: Estimated local-memory need of starting one instance, as a multiple of
#: the function footprint (guides eviction before a start; actual usage is
#: whatever the mechanism really allocates).
_MEMORY_FACTOR = {
    "cold": 1.05,
    "criu-cxl": 1.0,
    "mitosis-cxl": 0.5,
    "cxlfork": 0.2,
}

#: SLO = measured (local) warm latency x this factor.  Tight enough that
#: MoW's CXL read penalty on cache-exceeding functions counts as "close to
#: the SLO" and triggers hybrid promotion (§5).
SLO_FACTOR = 1.4
#: Cap on the exponential memory-retry back-off.
MEMORY_RETRY_CAP_NS = int(160 * MS)
#: Relative jitter band on memory-retry delays (deterministic, from sim.rng).
MEMORY_RETRY_JITTER = 0.25
#: Controller tick (SLO evaluation + periodic A-bit refresh).
CONTROLLER_TICK_NS = int(1 * SEC)
#: Refresh checkpointed A bits every this many ticks.
HOT_REFRESH_TICKS = 5


@dataclass
class PorterConfig:
    """Tunables of one CXLporter deployment."""

    mechanism: str = "cxlfork"
    user: str = "tenant0"
    ghost_pool_per_function: int = 4
    highmem_threshold: float = 0.90
    #: Pin CXLfork to migrate-on-write (the Fig. 10 "CXLfork-MoW" arm).
    static_mow: bool = False
    #: Checkpoint after this many invocations (§5: the 16th).
    checkpoint_after: int = 16
    #: Clear A/D bits after this many invocations (§5: the first).
    clear_ad_after: int = 1
    keepalive: KeepAlivePolicy = field(default_factory=KeepAlivePolicy)
    #: Base back-off before retrying a start that could not get memory.
    #: Retries grow exponentially from here (capped at
    #: :data:`MEMORY_RETRY_CAP_NS`, jittered) — see
    #: :class:`repro.faults.recovery.RetryPolicy`.
    memory_retry_ns: int = int(10 * MS)
    #: Give up on a request after this many memory retries (recorded as
    #: a ``failed`` start kind so trace replay still terminates).
    max_memory_retries: int = 8
    #: Seed for the deployment's private RNG streams (retry jitter).
    seed: int = 0
    #: Average CXL traffic one *running* instance offers the shared device
    #: (GB/s).  When nonzero and the fabric has a
    #: :class:`~repro.cxl.bandwidth.BandwidthTracker` installed, the
    #: deployment keeps the tracker's offered load equal to
    #: ``running_instances * cxl_stream_gbps`` — so packing more nodes
    #: onto one pod's device inflates effective CXL latency (§8).
    cxl_stream_gbps: float = 0.0


@dataclass
class InstanceRecord:
    """One live function instance under CXLporter management."""

    instance: FunctionInstance
    node: ComputeNode
    container: Any
    function: str
    busy: bool = False
    idle_since: int = 0
    expiry_at: int = 0
    expiry_event: Any = None
    is_template: bool = False  # Mitosis parents must stay alive


@dataclass
class _FunctionState:
    """Per-function protocol state."""

    workload: FunctionWorkload
    invocations: int = 0
    ad_cleared: bool = False
    checkpointed: bool = False
    slo_ns: float = 0.0
    warm_ns: float = 0.0


class CxlPorter:
    """The autoscaler."""

    def __init__(
        self,
        nodes: list,
        fabric,
        *,
        config: Optional[PorterConfig] = None,
        cxlfs=None,
        queue: Optional[EventQueue] = None,
    ) -> None:
        self.nodes = list(nodes)
        self.fabric = fabric
        self.cxlfs = cxlfs
        self.config = config or PorterConfig()
        #: The master clock.  Standalone deployments own a private queue;
        #: federated deployments (repro.cluster) share the router's, so
        #: events across pods interleave on one virtual timeline.
        self.queue = queue if queue is not None else EventQueue()
        #: Federation hook: when set, ``_drop`` offers the request to this
        #: callable first; returning True means the upper layer took it
        #: (e.g. the cluster router re-routes it to another pod) and this
        #: deployment must not record it as failed.
        self.drop_handler: Optional[Callable[[Request, str], bool]] = None
        self.store = CheckpointObjectStore(fabric)
        self.metrics = LatencyRecorder()
        self.scheduler = ClusterScheduler(self.nodes)
        self.controller = TieringController(
            highmem_threshold=self.config.highmem_threshold,
            static_policy=MigrateOnWrite() if self.config.static_mow else None,
        )
        self.ghostpools = {
            node.name: GhostContainerPool(
                node, per_function=self.config.ghost_pool_per_function
            )
            for node in self.nodes
        }
        self.factories = {node.name: ContainerFactory(node) for node in self.nodes}
        self._functions: dict[str, _FunctionState] = {}
        self._idle: dict[str, dict[str, list]] = {n.name: {} for n in self.nodes}
        self._fifo: dict[str, deque[Callable]] = {n.name: deque() for n in self.nodes}
        self._slots: dict[str, int] = {}
        for node in self.nodes:
            node._porter_running = 0
            self._slots[node.name] = node.spec.cpu_count
        builder_workloads: dict[str, FunctionWorkload] = {}
        self._builder_workloads = builder_workloads
        if self.config.mechanism == "cxlfork":
            self.mechanism = get_mechanism("cxlfork")
        elif self.config.mechanism == "criu-cxl":
            self.mechanism = get_mechanism("criu-cxl", fabric=fabric, cxlfs=cxlfs)
        elif self.config.mechanism == "mitosis-cxl":
            self.mechanism = get_mechanism("mitosis-cxl")
        else:
            raise ValueError(
                f"CXLporter variants use a remote-fork mechanism, got "
                f"{self.config.mechanism!r}"
            )
        self._tick_count = 0
        self._retries = 0
        self.retry_policy = RetryPolicy(
            base_ns=self.config.memory_retry_ns,
            cap_ns=MEMORY_RETRY_CAP_NS,
            max_attempts=self.config.max_memory_retries,
            jitter=MEMORY_RETRY_JITTER,
        )
        self._retry_rng = SeedSequenceFactory(self.config.seed).stream(
            "porter-retry"
        )
        #: id(request) -> memory retries so far (entries appear on the
        #: first retry and are popped on completion or drop).
        self._retry_attempts: dict[int, int] = {}
        for node in self.nodes:
            # The node's reclaimer asks us first (idle-instance eviction),
            # then falls back to dropping page cache on its own.
            node.reclaimer.register_victim_source(
                lambda shortfall, n=node: self._evict_idle_frames(n, shortfall)
            )
        # CXL-device pressure: CXLporter "is responsible for reclaiming
        # checkpoints under CXL memory pressure" (§5) — evict LRU entries
        # from the object store when the device runs short.
        fabric.device.frames.pressure_handler = self._cxl_reclaim

    # -- registration / pre-warming -------------------------------------------------

    def register_function(self, workload: "FunctionWorkload | str") -> _FunctionState:
        if not isinstance(workload, FunctionWorkload):
            workload = FunctionWorkload(workload)
        state = _FunctionState(workload=workload)
        self._functions[workload.spec.name] = state
        for pool in self.ghostpools.values():
            if self.mechanism.supports_ghost_containers:
                pool.provision(workload.spec.name)
        return state

    def prewarm_and_checkpoint(self, function: str, *, node: Optional[ComputeNode] = None):
        """Build, season per the §5 protocol, checkpoint, and store.

        Returns the object-store entry.  The seasoned parent stays alive
        only for Mitosis (whose checkpoint is coupled to it); for CXLfork
        and CRIU the parent exits — their checkpoints are self-contained.
        """
        state = self._functions[function]
        where = node or self.nodes[0]
        workload = state.workload
        span = TRACE.span("porter.prewarm", clock=where.clock, function=function)
        try:
            return self._prewarm_into(state, where, workload, function)
        finally:
            span.finish()

    def _prewarm_into(self, state, where, workload, function):
        instance = workload.build_instance(where)
        where.clock.advance(
            reset_access_bits(instance.task.mm.pagetable, clear_dirty=True)
        )
        result = None
        for _ in range(self.config.checkpoint_after):
            result = workload.invoke(instance)
        state.warm_ns = result.wall_ns
        state.slo_ns = result.wall_ns * SLO_FACTOR
        checkpoint, _ = self.mechanism.checkpoint(instance.task)
        entry = self.store.put(
            self.config.user,
            function,
            checkpoint,
            mechanism=self.mechanism.name,
            now=self.queue.now,
        )
        entry.plan = instance.plan
        state.checkpointed = True
        state.ad_cleared = True
        if self.mechanism.name == "mitosis-cxl":
            record = InstanceRecord(
                instance=instance,
                node=where,
                container=None,
                function=function,
                is_template=True,
            )
            entry.template = record
        else:
            where.kernel.exit_task(instance.task)
        return entry

    # -- the request path -----------------------------------------------------------

    def submit(self, request: Request) -> None:
        """Entry point: a request arrives (called from an arrival event)."""
        state = self._functions.get(request.function)
        if state is None:
            raise KeyError(f"function {request.function!r} was never registered")
        node = self.scheduler.pick_warm(request.function, self._has_idle)
        if node is not None:
            record = self._take_idle(node, request.function)
            self._node_submit(node, lambda: self._execute_warm(record, request))
            return
        entry = self.store.query(
            self.config.user, request.function, now=self.queue.now
        )
        try:
            node = self.scheduler.pick_for_start(lambda n: n._porter_running)
        except PodExhaustedError:
            self._drop(request, reason="cluster_exhausted")
            return
        if entry is not None:
            self._node_submit(
                node, lambda: self._execute_restore(node, entry, request)
            )
        else:
            self._node_submit(node, lambda: self._execute_cold(node, request))

    # -- node execution machinery ----------------------------------------------------

    def _node_submit(self, node: ComputeNode, work: Callable) -> None:
        if node._porter_running < self._slots[node.name]:
            self._start_work(node, work)
        else:
            self._fifo[node.name].append(work)

    def _start_work(self, node: ComputeNode, work: Callable) -> None:
        node._porter_running += 1
        self._update_offered_load()
        outcome = work()
        duration, on_done = outcome
        self.queue.schedule_after(
            int(duration),
            lambda: self._finish_work(node, on_done),
            label=f"complete@{node.name}",
        )

    def _finish_work(self, node: ComputeNode, on_done: Callable) -> None:
        node._porter_running -= 1
        self._update_offered_load()
        on_done()
        fifo = self._fifo[node.name]
        while fifo and node._porter_running < self._slots[node.name]:
            self._start_work(node, fifo.popleft())

    def _update_offered_load(self) -> None:
        """Mirror the running-instance count into the fabric's bandwidth
        tracker (no-op unless both the tracker and the config knob are on)."""
        if self.config.cxl_stream_gbps <= 0 or self.fabric.bandwidth is None:
            return
        running = sum(n._porter_running for n in self.nodes)
        self.fabric.bandwidth.register_stream(
            "porter-load", running * self.config.cxl_stream_gbps
        )

    def _measure(self, node: ComputeNode, fn: Callable) -> tuple:
        """Run ``fn`` against the node, returning (duration_ns, result)."""
        before = node.clock.now
        result = fn()
        return node.clock.now - before, result

    # -- work implementations -----------------------------------------------------------

    def _execute_warm(self, record: InstanceRecord, request: Request):
        state = self._functions[request.function]
        record.busy = True

        def do() -> bool:
            with TRACE.span(
                "porter.warm", clock=record.node.clock, function=request.function
            ):
                try:
                    state.workload.invoke(record.instance)
                    return True
                except (OutOfMemoryError, NodeFailedError):
                    # OOM: even direct reclaim could not feed it.  Node
                    # failure: a crash alarm fired mid-invocation and the
                    # instance died with the node.
                    return False

        duration, ok = self._measure(record.node, do)
        if not ok:
            # Even direct reclaim could not feed this invocation: give the
            # instance's memory back and retry the request elsewhere/later.
            self._teardown(record)
            return self._retry_later(record.node, request, duration)

        def on_done():
            self._complete(record, request, kind="warm")

        return duration, on_done

    def _execute_restore(self, node: ComputeNode, entry, request: Request):
        state = self._functions[request.function]
        self._ensure_capacity(node, self._estimate_bytes(request.function))

        def do() -> Optional[InstanceRecord]:
            with TRACE.span(
                "porter.restore_start", clock=node.clock,
                function=request.function, mechanism=self.mechanism.name,
            ):
                container = None
                try:
                    node.clock.advance(LOOKUP_NS)
                    if self.mechanism.supports_ghost_containers:
                        ghost = self.ghostpools[node.name].acquire(request.function)
                        if ghost is not None:
                            node.clock.advance(ghost.trigger())
                            container = ghost
                    if container is None:
                        container = self.factories[node.name].create(
                            request.function, charge=True
                        )
                    policy = None
                    if self.mechanism.name == "cxlfork":
                        policy = self.controller.policy_for(request.function, node)
                    try:
                        result = self.mechanism.restore(
                            entry.checkpoint, node, container=container, policy=policy
                        )
                    except OutOfMemoryError:
                        self._release_container(node, container)
                        return None
                    instance = state.workload.instance_from_plan(
                        entry.plan, result.task
                    )
                    record = InstanceRecord(
                        instance=instance,
                        node=node,
                        container=container,
                        function=request.function,
                        busy=True,
                    )
                    try:
                        state.workload.invoke(instance)
                    except OutOfMemoryError:
                        self._teardown(record)
                        return None
                    return record
                except NodeFailedError:
                    # Either this node crashed mid-start (alarms fire while
                    # its clock advances; partial state died with it) or
                    # the checkpoint's parent node is gone (Mitosis).  The
                    # retry path re-places or degrades to a cold start.
                    self._release_container(node, container)
                    return None

        duration, record = self._measure(node, do)
        if record is None:
            return self._retry_later(node, request, duration)

        def on_done():
            self._complete(record, request, kind="restore")

        return duration, on_done

    def _execute_cold(self, node: ComputeNode, request: Request):
        state = self._functions[request.function]
        self._ensure_capacity(node, self._estimate_bytes(request.function, cold=True))

        def do() -> Optional[InstanceRecord]:
            with TRACE.span(
                "porter.cold_start", clock=node.clock, function=request.function
            ):
                container = None
                instance = None
                try:
                    container = self.factories[node.name].create(
                        request.function, charge=True
                    )
                    instance = state.workload.build_instance(node, container=container)
                    record = InstanceRecord(
                        instance=instance,
                        node=node,
                        container=container,
                        function=request.function,
                        busy=True,
                    )
                    state.workload.invoke(instance)
                except (OutOfMemoryError, NodeFailedError):
                    if (
                        instance is not None
                        and not node.failed
                        and instance.task.state is not TaskState.DEAD
                    ):
                        node.kernel.exit_task(instance.task)
                    self._release_container(node, container)
                    return None
                return record

        duration, record = self._measure(node, do)
        if record is None:
            return self._retry_later(node, request, duration)

        def on_done():
            self._complete(record, request, kind="cold")

        return duration, on_done

    def _retry_later(self, node: ComputeNode, request: Request, wasted_ns: float):
        """A start attempt failed: decide between re-place, retry, drop.

        * The target node died: re-place immediately on a survivor — a
          dead node never comes back, so backing off against it is wasted
          virtual time and the retry budget stays untouched.
        * Out of memory: retry with capped exponential backoff plus
          deterministic jitter; after ``max_memory_retries`` attempts the
          request is dropped (recorded as a ``failed`` start).
        """
        if node.failed:
            TRACE.count("porter.replaced_requests")

            def on_done():
                self._resubmit(request)

            return max(wasted_ns, 1), on_done

        attempts = self._retry_attempts.get(id(request), 0)
        if attempts >= self.retry_policy.max_attempts:
            def on_done():
                self._drop(request, reason="retries_exhausted")

            return max(wasted_ns, 1), on_done

        self._retry_attempts[id(request)] = attempts + 1
        self._retries += 1
        TRACE.count("porter.memory_retries")
        delay_ns = self.retry_policy.delay_ns(attempts, rng=self._retry_rng)

        def on_done():
            self.queue.schedule_after(
                delay_ns, lambda: self._resubmit(request), label="memory-retry"
            )

        return max(wasted_ns, 1), on_done

    def _resubmit(self, request: Request) -> None:
        """Re-enter the request path (the scheduler re-picks a live node)."""
        try:
            self.submit(request)
        except PodExhaustedError:  # pragma: no cover - submit drops first
            self._drop(request, reason="cluster_exhausted")

    def _drop(self, request: Request, *, reason: str) -> None:
        """Give up on a request, keeping the trace-replay accounting sound."""
        self._retry_attempts.pop(id(request), None)
        if self.drop_handler is not None and self.drop_handler(request, reason):
            # The federation layer re-routed it; not this pod's loss.
            return
        self.metrics.record(
            request.function, self.queue.now - request.when, kind="failed"
        )
        TRACE.count("porter.requests_failed")
        TRACE.count(f"porter.requests_failed.{reason}")

    # -- completion & lifecycle -------------------------------------------------------------

    def _complete(self, record: InstanceRecord, request: Request, *, kind: str) -> None:
        if record.node.failed:
            # The node died between dispatch and completion; the work was
            # lost with it.  Re-place the request on a survivor.
            TRACE.count("porter.replaced_requests")
            self._resubmit(request)
            return
        state = self._functions[request.function]
        self._retry_attempts.pop(id(request), None)
        now = self.queue.now
        latency = now - request.when
        self.metrics.record(request.function, latency, kind=kind)
        if TRACE.active():
            TRACE.count(f"porter.requests.{kind}")
            TRACE.observe("porter.request_latency_ns", latency)
        if state.slo_ns:
            self.controller.record_latency(request.function, state.slo_ns, latency)
        self._run_checkpoint_protocol(record, state)
        self._maybe_promote(record, request.function)
        self._make_idle(record)

    def _maybe_promote(self, record: InstanceRecord, function: str) -> None:
        """Online tiering promotion: once a function is promoted to hybrid,
        instances restored earlier under MoW get their hot CXL pages
        migrated to local memory in the background (§5)."""
        if self.mechanism.name != "cxlfork" or self.config.static_mow:
            return
        if not self.controller.evaluate(function, record.node):
            return
        if record.instance.task.mm.cxl_mapped_pages() == 0:
            return
        from repro.tiering.migration import migrate_hot_pages

        migrate_hot_pages(record.node.kernel, record.instance.task)

    def _run_checkpoint_protocol(self, record: InstanceRecord, state: _FunctionState) -> None:
        """The §5 online protocol (no-op once a checkpoint exists)."""
        state.invocations += 1
        node = record.node
        if not state.ad_cleared and state.invocations >= self.config.clear_ad_after:
            node.clock.advance(
                reset_access_bits(
                    record.instance.task.mm.pagetable, clear_dirty=True
                )
            )
            state.ad_cleared = True
        if not state.checkpointed and state.invocations >= self.config.checkpoint_after:
            checkpoint, _ = self.mechanism.checkpoint(record.instance.task)
            entry = self.store.put(
                self.config.user,
                state.workload.spec.name,
                checkpoint,
                mechanism=self.mechanism.name,
                now=self.queue.now,
            )
            entry.plan = record.instance.plan
            state.checkpointed = True
            if self.mechanism.name == "mitosis-cxl":
                record.is_template = True
                entry.template = record

    def _make_idle(self, record: InstanceRecord) -> None:
        record.busy = False
        record.idle_since = self.queue.now
        record.expiry_at = self.config.keepalive.expiry(record.node, self.queue.now)
        pool = self._idle[record.node.name].setdefault(record.function, [])
        pool.append(record)
        record.expiry_event = self.queue.schedule(
            record.expiry_at,
            lambda: self._expire(record),
            label=f"keepalive:{record.function}",
        )

    def _expire(self, record: InstanceRecord) -> None:
        if record.busy:
            return
        pool = self._idle[record.node.name].get(record.function, [])
        if record in pool:
            # Under pressure the window may have shortened since this
            # expiry was scheduled; under calm it may have lengthened.
            if self.queue.now >= record.expiry_at:
                pool.remove(record)
                self._teardown(record)

    def _has_idle(self, node: ComputeNode, function: str) -> bool:
        return bool(self._idle[node.name].get(function))

    def warm_idle_count(self, function: str) -> int:
        """Idle warm instances of ``function`` across the deployment (a
        locality signal for the federation router)."""
        return sum(len(pools.get(function, ())) for pools in self._idle.values())

    def total_slots(self) -> int:
        """Aggregate concurrent-execution capacity across live nodes."""
        return sum(
            self._slots[n.name] for n in self.nodes if not n.failed
        )

    def _take_idle(self, node: ComputeNode, function: str) -> InstanceRecord:
        record = self._idle[node.name][function].pop()
        record.busy = True
        if record.expiry_event is not None:
            self.queue.cancel(record.expiry_event)
            record.expiry_event = None
        return record

    def _teardown(self, record: InstanceRecord) -> None:
        if record.is_template:
            return  # Mitosis parents stay until the checkpoint is evicted
        if record.node.failed or record.instance.task.state is TaskState.DEAD:
            return  # node.fail() already tore the task down with the node
        record.node.kernel.exit_task(record.instance.task)
        self._release_container(record.node, record.container)

    def _release_container(self, node: ComputeNode, container) -> None:
        if container is None or node.failed:
            # A dead node's containers (and their memory charge) died
            # with its quarantined DRAM pool.
            return
        if getattr(container, "is_ghost", False):
            self.ghostpools[node.name].release(container)
        else:
            container.destroy()

    # -- memory management -----------------------------------------------------------------

    def _estimate_bytes(self, function: str, *, cold: bool = False) -> int:
        spec = self._functions[function].workload.spec
        factor = _MEMORY_FACTOR["cold" if cold else self.mechanism.name]
        return int(spec.footprint_bytes * factor)

    def _evict_idle_frames(self, node: ComputeNode, shortfall_frames: int) -> int:
        """Victim source for the node reclaimer: evict idle instances."""
        from repro.sim.units import pages_to_bytes

        before = node.dram_free_bytes
        self._ensure_capacity(node, before + pages_to_bytes(shortfall_frames))
        return (node.dram_free_bytes - before) // 4096

    def _cxl_reclaim(self, shortfall_frames: int) -> bool:
        """Device pressure callback: evict LRU checkpoints (§5)."""
        from repro.sim.units import pages_to_bytes

        freed = self.store.reclaim(pages_to_bytes(shortfall_frames))
        TRACE.count("porter.ckpt_reclaims")
        # Their functions will re-checkpoint on demand.
        for state in self._functions.values():
            name = state.workload.spec.name
            if not self.store.contains(self.config.user, name):
                state.checkpointed = False
        return freed > 0

    def _ensure_capacity(self, node: ComputeNode, need_bytes: int) -> bool:
        """Evict idle instances (LRU) until ``need_bytes`` fit."""
        if node.dram_free_bytes >= need_bytes:
            return True
        idle_records = [
            r for pool in self._idle[node.name].values() for r in pool
        ]
        idle_records.sort(key=lambda r: r.idle_since)
        for record in idle_records:
            if node.dram_free_bytes >= need_bytes:
                break
            self._idle[node.name][record.function].remove(record)
            if record.expiry_event is not None:
                self.queue.cancel(record.expiry_event)
            self._teardown(record)
        return node.dram_free_bytes >= need_bytes

    def audit_leaks(self):
        """Cross-check every pool's refcounts against this deployment's
        live owners (tasks, checkpoints, ghost pools, page caches).

        Returns a :class:`repro.faults.audit.PodAudit`; ``.clean`` must
        hold at any quiescent point, crashes included.
        """
        from repro.faults.audit import audit_pod

        return audit_pod(
            self.fabric,
            self.nodes,
            cxlfs=self.cxlfs or getattr(self.mechanism, "cxlfs", None),
            checkpoints=[e.checkpoint for e in self.store.entries()],
            ghost_pools=self.ghostpools.values(),
        )

    # -- the control loop ---------------------------------------------------------------------

    def _controller_tick(self) -> None:
        self._tick_count += 1
        if self._tick_count % HOT_REFRESH_TICKS == 0:
            self.controller.refresh_hot_sets(self.store.entries())
        self.queue.schedule_after(CONTROLLER_TICK_NS, self._controller_tick)

    def run(self, requests: list, *, until: Optional[int] = None) -> LatencyRecorder:
        """Replay a trace to completion; returns the latency recorder."""
        for request in requests:
            self.queue.schedule(
                request.when, lambda r=request: self.submit(r), label="arrival"
            )
        self.queue.schedule_after(CONTROLLER_TICK_NS, self._controller_tick)
        horizon = until
        if horizon is None:
            horizon = (max(r.when for r in requests) if requests else 0) + 120 * SEC
        while True:
            pending = self.queue.peek_time()
            if pending is None or pending > horizon:
                break
            self.queue.step()
            # Without an explicit horizon, stop as soon as the trace is
            # served; with one, keep running background events (keep-alive
            # expiries, controller ticks) up to it.
            if until is None and self.metrics.count() >= len(requests):
                break
        return self.metrics


__all__ = ["CxlPorter", "PorterConfig", "InstanceRecord"]
