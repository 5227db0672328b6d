"""The three benchmark workloads: ``serve``, ``coldfork`` and ``seal``.

Each workload class is one *episode*: ``setup()`` builds pods and seasons
parents (timed as ``setup_s``), ``run_ops()`` drives the timed ops and
returns their host durations, ``results()`` is the simulated (virtual-time)
output that the digest pins, and ``audit()`` lists correctness problems.
An episode is a pure function of its seed, so every episode of one run
must produce the same digest.

Inputs come only from the workload seed; the program sees the generated
trace, function order and mechanism rotation, never the seed itself.
"""

from __future__ import annotations

import random
import time
import traceback
from contextlib import nullcontext

import numpy as np

from repro.check.invariants import check_pod
from repro.cluster import ClusterRouter, PodHandle, RouterConfig, build_federation
from repro.cluster.replication import (
    HASH_WIRE_BYTES,
    materialize,
    shipped_bytes,
    wire_chunk_codes,
    wire_image,
)
from repro.cxl.topology import PodTopology
from repro.dedup import DEDUP
from repro.experiments.cluster_scale import ClusterScaleConfig
from repro.experiments.common import child_local_bytes, make_pod, prepare_parent
from repro.faas.functions import FunctionSpec
from repro.faas.traces import Request, popularity_weights
from repro.porter.autoscaler import PorterConfig
from repro.porter.keepalive import KeepAlivePolicy
from repro.rfork.registry import get_mechanism
from repro.serial.codec import Codec
from repro.sim.units import GIB, PAGE_SIZE, SEC

#: A write-heavy synthetic function (not in Table 1): its read/write segment
#: is half the footprint and 90% of it is written per invocation, so every
#: invocation writes 45% of the footprint through CoW.
WRITE_HEAVY = FunctionSpec(
    name="wheavy",
    description="synthetic write-heavy function (45% of footprint written)",
    footprint_mb=32,
    init_frac=0.40,
    ro_frac=0.10,
    rw_frac=0.50,
    file_frac_of_init=0.40,
    state_init_ms=250.0,
    compute_ms=6.0,
    reaccess_per_page=3.0,
    init_touch_frac=0.06,
    ro_touch_frac=0.70,
    rw_touch_frac=0.90,
    lib_vma_count=80,
    fd_count=12,
)


class Workload:
    """One seeded episode (see module docstring)."""

    name = "abstract"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        #: Ops the episode will attempt.
        self.planned = 0
        #: Ops that completed on the host but failed in the simulation.
        self.failed = 0
        #: Traceback of the exception that ended the episode early, if any.
        self.error = None

    def scope(self):
        """Runtime switches the whole episode runs under."""
        return nullcontext()

    def setup(self) -> None:
        raise NotImplementedError

    def run_ops(self) -> list:
        raise NotImplementedError

    def results(self):
        raise NotImplementedError

    def audit(self) -> list:
        raise NotImplementedError

    def counters(self) -> dict:
        """Program-side counters the per-layer report reads (dedup stats,
        routing, wire bytes); all deterministic."""
        return {}

    def _timed(self, ops) -> list:
        """Run each op, returning host ns per op; an op that raises ends
        the episode (its state is no longer trusted), so it and every op
        after it count as failed."""
        durations = []
        for op in ops:
            t0 = time.perf_counter_ns()
            try:
                op()
            except Exception:  # noqa: BLE001 - counted, then reported
                self.error = traceback.format_exc()
                break
            durations.append(time.perf_counter_ns() - t0)
        return durations


# -- serve ---------------------------------------------------------------------


class Serve(Workload):
    """Federated pods serving a bursty Azure-shaped trace.

    Built the way ``cluster_scale.run_federated`` builds its federation:
    four pods of two nodes, cxlfork with push replication, one home pod per
    function.  One op is one request; its host time is the slice of the
    event loop from its arrival to the next arrival.
    """

    name = "serve"

    #: The trace: a fixed number of requests per function (popularity
    #: split), in a fixed calm/burst schedule; the seed draws each
    #: request's phase and arrival time.  Fixing the counts and the
    #: schedule keeps the amount of work the same for every seed.
    REQUESTS = 720
    PHASES = ((1.5, 1.0), (0.5, 8.0), (1.5, 1.0), (0.5, 8.0), (1.0, 1.0))

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.config = ClusterScaleConfig(seed=seed)
        self.trace = self.bursty_trace(seed)
        self.planned = len(self.trace)

    @classmethod
    def bursty_trace(cls, seed: int) -> list:
        names = list(ClusterScaleConfig.functions)
        weights = popularity_weights(names, ClusterScaleConfig.popularity_skew)
        counts = np.floor(weights * cls.REQUESTS).astype(int)
        counts[: cls.REQUESTS - counts.sum()] += 1
        lengths = np.array([length for length, _ in cls.PHASES])
        starts = np.concatenate(([0.0], np.cumsum(lengths)[:-1]))
        mass = lengths * np.array([rate for _, rate in cls.PHASES])
        rng = np.random.default_rng(seed)
        arrivals = []
        for name, count in zip(names, counts):
            phase = rng.choice(len(cls.PHASES), size=count, p=mass / mass.sum())
            when = starts[phase] + rng.random(count) * lengths[phase]
            arrivals.extend((int(t * SEC), name) for t in when)
        arrivals.sort()
        return [
            Request(when=when, function=name, request_id=i)
            for i, (when, name) in enumerate(arrivals)
        ]

    def setup(self) -> None:
        c = self.config
        window_ns = int(c.keepalive_s * SEC)
        self.router: ClusterRouter = build_federation(
            c.pod_count,
            topology=PodTopology.paper_testbed(
                node_count=c.nodes_per_pod,
                dram_bytes=c.dram_bytes,
                cxl_bytes=c.cxl_bytes,
                cpu_count=c.cpu_count,
            ),
            porter_config=PorterConfig(
                mechanism=c.mechanism,
                cxl_stream_gbps=c.stream_gbps,
                seed=c.seed,
                keepalive=KeepAlivePolicy(
                    normal_window_ns=window_ns,
                    pressured_window_ns=min(window_ns, int(0.5 * SEC)),
                ),
            ),
            router_config=RouterConfig(link=c.link, replication=c.replication),
            device_gbps=c.device_gbps,
        )
        pods = self.router.membership.pods()
        for i, fn in enumerate(c.functions):
            self.router.register_function(fn)
            self.router.prewarm(fn, home=pods[i % len(pods)].name)

    def run_ops(self) -> list:
        router = self.router
        arrivals: list = []
        seen: set = set()
        submit = router.submit

        def stamped(request):
            if request.request_id not in seen:
                seen.add(request.request_id)
                arrivals.append(time.perf_counter_ns())
            return submit(request)

        router.submit = stamped  # the arrival events resolve self.submit
        try:
            router.run(self.trace)
            end = time.perf_counter_ns()
        except Exception:  # noqa: BLE001 - counted, then reported
            self.error = traceback.format_exc()
            return []
        finally:
            del router.submit
        metrics = router.merged_metrics()
        self.failed += metrics.start_kind_counts().get("failed", 0)
        if metrics.count() != len(self.trace):
            self.failed += abs(len(self.trace) - metrics.count())
        return list(np.diff(np.array(arrivals + [end], dtype=np.int64)))

    def results(self):
        metrics = self.router.merged_metrics()
        router = self.router
        return {
            "requests": len(self.trace),
            "functions": {
                fn: {
                    "latency_ns": metrics.histogram(fn).to_numpy().tolist(),
                    "kinds": metrics.kinds(fn),
                }
                for fn in metrics.functions()
            },
            "reroutes": router.stats.reroutes,
            "pulls": router.stats.pulls,
            "interconnect_bytes": router.interconnect.total_bytes,
        }

    def audit(self) -> list:
        problems = []
        for pod in self.router.membership.pods():
            report = pod.porter.audit_leaks()
            if not report.clean:
                problems.append(f"{pod.name}: {report.describe()}")
        return problems

    def counters(self) -> dict:
        return {
            "reroutes": self.router.stats.reroutes,
            "pulls": self.router.stats.pulls,
            "wire_bytes": self.router.interconnect.total_bytes,
        }


# -- coldfork ------------------------------------------------------------------


class ColdFork(Workload):
    """Cold remote forks on one pod, every restore a plan build.

    Set-up seasons one parent per function.  One op is checkpoint ->
    remote restore -> first invocation -> child exit -> checkpoint delete,
    on one mechanism; every (function, mechanism) pair runs once per round,
    in a seeded order.
    """

    name = "coldfork"
    FUNCTIONS = ("float", "json", "chameleon", "bfs", WRITE_HEAVY)
    MECHANISMS = ("criu-cxl", "mitosis-cxl", "cxlfork")
    ROUNDS = 4

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = random.Random(seed)
        pairs = [
            (f, m) for f in range(len(self.FUNCTIONS)) for m in self.MECHANISMS
        ]
        self.order = []
        for _ in range(self.ROUNDS):
            rng.shuffle(pairs)
            self.order.extend(pairs)
        self.planned = len(self.order)
        self.rows: list = []

    def setup(self) -> None:
        self.pod = make_pod(dram_bytes=8 * GIB, cxl_bytes=16 * GIB)
        self.parents = [prepare_parent(self.pod, fn) for fn in self.FUNCTIONS]
        self.mechs = {
            m: get_mechanism(m, fabric=self.pod.fabric, cxlfs=self.pod.cxlfs)
            for m in self.MECHANISMS
        }

    def _op(self, fn_index: int, mech_name: str) -> None:
        parent = self.parents[fn_index]
        mech = self.mechs[mech_name]
        checkpoint, ckpt_metrics = mech.checkpoint(parent.instance.task)
        restored = mech.restore(checkpoint, self.pod.target)
        child = parent.workload.placed_plan_for(parent.instance, restored.task)
        invocation = parent.workload.invoke(child)
        local_bytes = child_local_bytes(child)
        self.pod.target.kernel.exit_task(child.task)
        mech.delete_checkpoint(checkpoint)
        self.rows.append({
            "function": parent.workload.spec.name,
            "mechanism": mech_name,
            "checkpoint_ns": ckpt_metrics.latency_ns,
            "restore_ns": restored.metrics.latency_ns,
            "fault_ns": invocation.fault_ns,
            "access_ns": invocation.access_ns,
            "touched_pages": invocation.touched_pages,
            "local_bytes": local_bytes,
        })

    def run_ops(self) -> list:
        return self._timed(
            (lambda f=f, m=m: self._op(f, m)) for f, m in self.order
        )

    def results(self):
        return self.rows

    def audit(self) -> list:
        report = check_pod(self.pod.fabric, self.pod.nodes, cxlfs=self.pod.cxlfs)
        return [] if report.clean else [report.describe()]


# -- seal ----------------------------------------------------------------------


class Seal(Workload):
    """Cross-checkpoint dedup: seal checkpoint generations, ship each one
    delta-mode to a peer pod, audit both pods.

    Follows ``density.cross_point`` for one seeded function: two
    independently built parents seal first, then two children restored
    from one of them (seeded) are invoked and re-checkpointed, one through
    cxlfork and one through criu-cxl (seeded order).  Every checkpoint
    stays live, so the chunk index grows with each generation.
    """

    name = "seal"
    #: Table-1 functions of one size (24 MB), so the seed changes the
    #: content and order of the work but hardly its amount.
    FUNCTIONS = ("float", "json", "pyaes")

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = random.Random(seed)
        self.function = rng.choice(self.FUNCTIONS)
        source = rng.randrange(2)
        rechecks = ["recheck-cxlfork", "recheck-criu"]
        rng.shuffle(rechecks)
        self.plan = [("parent", 0), ("parent", 1)]
        self.plan.extend((kind, source) for kind in rechecks)
        self.planned = len(self.plan)
        self.rows: list = []

    def scope(self):
        return DEDUP.force(True)

    def setup(self) -> None:
        self.pod = make_pod(node_count=3, dram_bytes=4 * GIB, cxl_bytes=32 * GIB)
        peer = make_pod(node_count=2, dram_bytes=2 * GIB, cxl_bytes=32 * GIB)
        self.peer = PodHandle("peer", peer.fabric, peer.nodes, cxlfs=peer.cxlfs)
        self.codec = Codec()
        self.mechs = {
            "cxlfork": get_mechanism(
                "cxlfork", fabric=self.pod.fabric, cxlfs=self.pod.cxlfs
            ),
            "criu-cxl": get_mechanism(
                "criu-cxl", fabric=self.pod.fabric, cxlfs=self.pod.cxlfs
            ),
        }
        self.parents = [
            prepare_parent(self.pod, self.function, node=self.pod.nodes[i])
            for i in range(2)
        ]
        self.checkpoints: list = []
        self.parent_ckpts: dict = {}
        self.replicas: list = []
        self.wire_bytes = 0

    def _ship(self, checkpoint) -> int:
        """Delta-ship one image to the peer pod; returns bytes on the wire."""
        blob = self.codec.encode(wire_image(checkpoint))
        wire = self.codec.decode(blob)
        codes = wire_chunk_codes(wire)
        if codes.size:
            uniq = np.unique(codes)
            uniq = uniq[uniq != 0]
            index = getattr(self.peer.fabric, "_chunk_index", None)
            missing = index.missing_codes(codes) if index is not None else uniq
            nbytes = (
                len(blob) + int(missing.size) * PAGE_SIZE
                + int(uniq.size) * HASH_WIRE_BYTES
            )
        else:
            nbytes = shipped_bytes(checkpoint, blob)
        replica, _ = materialize(wire, self.peer, codec=self.codec)
        self.replicas.append(replica)
        return nbytes

    def _op(self, kind: str, slot: int) -> None:
        parent = self.parents[slot]
        if kind == "parent":
            mech_name, task = "cxlfork", parent.instance.task
        else:
            restored = self.mechs["cxlfork"].restore(
                self.parent_ckpts[slot], self.pod.nodes[2]
            )
            child = parent.workload.placed_plan_for(parent.instance, restored.task)
            parent.workload.invoke(child)
            mech_name = "cxlfork" if kind == "recheck-cxlfork" else "criu-cxl"
            task = child.task
        checkpoint, metrics = self.mechs[mech_name].checkpoint(task)
        self.checkpoints.append(checkpoint)
        if kind == "parent":
            self.parent_ckpts[slot] = checkpoint
        nbytes = self._ship(checkpoint)
        self.wire_bytes += nbytes
        problems = self.audit()
        self.rows.append({
            "function": self.function,
            "kind": kind,
            "checkpoint_ns": metrics.latency_ns,
            "logical_bytes": checkpoint.cxl_bytes,
            "resident_bytes": getattr(
                checkpoint, "resident_cxl_bytes", checkpoint.cxl_bytes
            ),
            "shared_pages": int(
                getattr(checkpoint, "shared_chunk_pages", 0)
                or getattr(checkpoint, "dedup_pages", 0)
            ),
            "wire_bytes": nbytes,
            "audit_clean": not problems,
        })
        if problems:
            raise RuntimeError(f"audit after {kind}: {'; '.join(problems)}")

    def run_ops(self) -> list:
        return self._timed(
            (lambda p=p: self._op(*p)) for p in self.plan
        )

    def results(self):
        return self.rows

    def audit(self) -> list:
        reports = (
            ("pod", check_pod(
                self.pod.fabric, self.pod.nodes, cxlfs=self.pod.cxlfs,
                checkpoints=self.checkpoints,
            )),
            ("peer", check_pod(
                self.peer.fabric, self.peer.nodes, cxlfs=self.peer.cxlfs,
                checkpoints=self.replicas,
            )),
        )
        return [f"{label}: {r.describe()}" for label, r in reports if not r.clean]

    def counters(self) -> dict:
        stats = self.pod.fabric.chunk_index.stats
        return {
            "dedup_hits": stats.hits,
            "dedup_misses": stats.misses,
            "wire_bytes": self.wire_bytes,
        }


WORKLOADS = {cls.name: cls for cls in (Serve, ColdFork, Seal)}

__all__ = ["WORKLOADS", "WRITE_HEAVY", "Workload", "Serve", "ColdFork", "Seal"]
