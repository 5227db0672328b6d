"""Shared experiment plumbing: pods, instance preparation, measurement."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.check import CHECK
from repro.cxl.latency import MemoryLatencyModel
from repro.cxl.topology import PodTopology
from repro.faas.functions import FunctionSpec
from repro.faas.workload import FunctionInstance, FunctionWorkload
from repro.os.fs.cxlfs import CxlFileSystem
from repro.os.node import ComputeNode
from repro.rfork.base import RestoreResult
from repro.rfork.registry import get_mechanism
from repro.sim.units import GIB, MIB, MS, PAGE_SIZE


@dataclass
class Pod:
    """A freshly built two-node pod plus the shared CXL file system."""

    fabric: object
    nodes: list
    cxlfs: CxlFileSystem

    @property
    def source(self) -> ComputeNode:
        return self.nodes[0]

    @property
    def target(self) -> ComputeNode:
        return self.nodes[1]


def make_pod(
    *,
    node_count: int = 2,
    dram_bytes: int = 16 * GIB,
    cxl_bytes: int = 16 * GIB,
    latency: Optional[MemoryLatencyModel] = None,
) -> Pod:
    """Build the paper-testbed-shaped pod (smaller DRAM by default — the
    rfork experiments run one function at a time)."""
    topo = PodTopology.paper_testbed(
        node_count=node_count,
        dram_bytes=dram_bytes,
        cxl_bytes=cxl_bytes,
        latency=latency,
    )
    fabric, nodes = topo.build()
    return Pod(fabric=fabric, nodes=nodes, cxlfs=CxlFileSystem(fabric))


@dataclass
class PreparedParent:
    """A seasoned parent instance, ready to checkpoint."""

    workload: FunctionWorkload
    instance: FunctionInstance
    warm_wall_ns: float


def prepare_parent(
    pod: Pod,
    function: "FunctionSpec | str",
    *,
    node: Optional[ComputeNode] = None,
    warm_invocations: int = 3,
) -> PreparedParent:
    """Build + season a function on a node (CXLporter's checkpoint protocol)."""
    workload = FunctionWorkload(function)
    where = node if node is not None else pod.source
    instance = workload.build_instance(where)
    last = workload.season(instance, warm_invocations=warm_invocations)
    return PreparedParent(
        workload=workload, instance=instance, warm_wall_ns=last.wall_ns
    )


@dataclass
class ColdStartMeasurement:
    """One remote-forked cold start: restore + first invocation."""

    function: str
    mechanism: str
    restore_ns: float
    fault_ns: float
    exec_ns: float
    local_bytes: int
    restore: Optional[RestoreResult] = None
    invocation: object = None
    child: Optional[FunctionInstance] = None

    @property
    def total_ns(self) -> float:
        return self.restore_ns + self.fault_ns + self.exec_ns

    @property
    def total_ms(self) -> float:
        return self.total_ns / MS

    @property
    def local_mb(self) -> float:
        return self.local_bytes / MIB


def child_local_bytes(instance: FunctionInstance) -> int:
    """Local memory attributable to the child: its own data pages plus its
    local page-table structures (the Fig. 7b metric)."""
    mm = instance.task.mm
    return (mm.owned_local_pages + mm.pagetable.local_table_pages()) * PAGE_SIZE


def measure_cold_start(
    pod: Pod,
    parent: PreparedParent,
    mechanism_name: str,
    *,
    policy=None,
    keep_child: bool = False,
) -> ColdStartMeasurement:
    """Checkpoint the parent, restore on the remote node, run one invocation.

    * ``cold`` builds from scratch on the (cold) target node;
    * ``localfork`` forks from a warm parent on the *target* node;
    * the three rfork mechanisms checkpoint on the source and restore on
      the target.
    """
    workload = parent.workload
    spec = workload.spec
    target = pod.target

    # Under --check (the repro.check differential oracle), snapshot the
    # parent that the fork clones and verify the fresh child against it.
    # Every check is a read-only walk that never advances a virtual clock,
    # so enabling it cannot perturb latencies or bench digests.
    oracle = None

    if mechanism_name == "cold":
        mech = get_mechanism("cold", builder=workload.builder())
        image, _ = mech.checkpoint(parent.instance.task)
        restore = mech.restore(image, target)
        child = FunctionInstance(
            task=restore.task, plan=mech.builder.last_instance.plan, spec=spec
        )
    elif mechanism_name == "localfork":
        mech = get_mechanism("localfork")
        # The warm parent must live on the target node.
        local_parent = prepare_parent(pod, spec, node=target)
        if CHECK.active():
            from repro.check.oracle import DifferentialOracle

            oracle = DifferentialOracle(
                local_parent.instance.task, label=mechanism_name
            )
        restore = mech.restore(local_parent.instance.task, target)
        child = workload.placed_plan_for(local_parent.instance, restore.task)
    else:
        mech = get_mechanism(mechanism_name, fabric=pod.fabric, cxlfs=pod.cxlfs)
        if CHECK.active():
            from repro.check.oracle import DifferentialOracle

            oracle = DifferentialOracle(parent.instance.task, label=mechanism_name)
        checkpoint, _ = mech.checkpoint(parent.instance.task)
        restore = mech.restore(checkpoint, target, policy=policy)
        child = workload.placed_plan_for(parent.instance, restore.task)

    if oracle is not None:
        # A fresh child must be page-for-page equivalent to its parent.
        oracle.verify_child(restore.task, label="fresh")

    invocation = workload.invoke(child)

    if CHECK.active():
        from repro.check.invariants import check_task

        # Post-invocation MMU invariants on the child, and — for forked
        # mechanisms — proof the child's writes never reached the parent.
        report = check_task(child.task)
        if not report.clean:
            from repro.check import CheckFailure

            raise CheckFailure(report.describe())
        if oracle is not None:
            oracle.verify_parent_pristine()
    measurement = ColdStartMeasurement(
        function=spec.name,
        mechanism=mechanism_name,
        restore_ns=restore.metrics.latency_ns,
        fault_ns=invocation.fault_ns,
        exec_ns=invocation.access_ns + invocation.compute_ns,
        local_bytes=child_local_bytes(child),
        restore=restore if keep_child else None,
        invocation=invocation if keep_child else None,
        child=child if keep_child else None,
    )
    return measurement


def geometric_mean(values) -> float:
    import math

    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


__all__ = [
    "Pod",
    "make_pod",
    "PreparedParent",
    "prepare_parent",
    "ColdStartMeasurement",
    "measure_cold_start",
    "child_local_bytes",
    "geometric_mean",
]
