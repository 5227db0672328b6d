"""Failure sweep: crash timing across the checkpoint/restore lifecycle.

The paper's resilience argument (§3.1) is qualitative: CXLfork's
checkpoints live on the shared CXL device, so "any other node connected to
the CXL interconnect" keeps cloning after the source dies, while Mitosis'
parent node "acts as a point of failure".  This sweep makes the claim
quantitative — and adversarial.  For every mechanism it injects a node
crash at swept virtual-time points across three lifecycle stages:

* ``checkpoint`` — the source node dies *while writing* a second
  checkpoint (a complete prior checkpoint exists).  Recovery restores the
  prior checkpoint on a survivor.
* ``between`` — the source node dies after checkpointing, before any
  restore (the §3.1 scenario).
* ``restore`` — the *target* node dies mid-restore.  Recovery restores
  the same checkpoint on a spare node.

Each cell reports whether a survivor could still produce a working clone
(survival), the virtual time from crash to a recovered first invocation
(recovery latency), and the pod-wide frame-leak audit
(:func:`repro.faults.audit.audit_pod`) — which must be **zero leaked
frames at every point**, the hard acceptance invariant: a crash must never
strand CXL or DRAM frames, no matter when it lands.

Every run with the same seed is bit-identical (the bench harness digests
the rows), and :func:`gates` fails the run on any leak, so CI can gate on
it::

    PYTHONPATH=src python -m repro run failure-sweep --quick
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import (
    Pod,
    PreparedParent,
    claim,
    failed,
    make_pod,
    prepare_parent,
)
from repro.faults import FaultInjector, InjectedCrash, audit_pod
from repro.os.kernel import NodeFailedError
from repro.parallel import SweepPoint
from repro.rfork.registry import get_mechanism
from repro.sim.units import MS

#: Crash points as fractions of the crashed operation's virtual duration.
QUICK_FRACTIONS = (0.0, 0.5, 0.99)
FULL_FRACTIONS = (0.0, 0.25, 0.5, 0.75, 0.99)

MECHANISMS = ("cxlfork", "criu-cxl", "mitosis-cxl")
STAGES = ("checkpoint", "between", "restore")


@dataclass
class SweepRow:
    """One (mechanism, stage, crash-fraction) cell of the sweep."""

    mechanism: str
    stage: str
    fraction: float
    crashed_node: str
    survived: bool
    recovery_ms: float  # crash -> recovered first invocation; 0 when lost
    leaked_frames: int  # pod-wide audit after recovery; MUST be zero
    detail: str


def _mech(name: str, pod: Pod):
    return get_mechanism(name, fabric=pod.fabric, cxlfs=pod.cxlfs)


def _setup(mech_name: str, function: str):
    """Pod with a seasoned parent A (complete checkpoint) and parent B."""
    pod = make_pod(node_count=3)
    mech = _mech(mech_name, pod)
    parent_a = prepare_parent(pod, function, node=pod.source)
    ckpt_a, _ = mech.checkpoint(parent_a.instance.task)
    return pod, mech, parent_a, ckpt_a


#: Per-process memo for :func:`_operation_duration_ns`.  The duration is a
#: pure, deterministic function of its key, so memoizing keeps the serial
#: path at one dry run per (mechanism, stage) while letting each parallel
#: worker derive it independently — no cross-process coordination needed.
_DURATION_CACHE: dict = {}


def _operation_duration_ns_cached(mech_name: str, stage: str, function: str) -> int:
    key = (mech_name, stage, function)
    if key not in _DURATION_CACHE:
        _DURATION_CACHE[key] = _operation_duration_ns(mech_name, stage, function)
    return _DURATION_CACHE[key]


def _operation_duration_ns(mech_name: str, stage: str, function: str) -> int:
    """Virtual duration of the operation the sweep will crash (dry run on
    an identical pod — the simulator is deterministic, so this is exact)."""
    pod, mech, parent_a, ckpt_a = _setup(mech_name, function)
    if stage == "checkpoint":
        parent_b = prepare_parent(pod, function, node=pod.source)
        before = pod.source.clock.now
        mech.checkpoint(parent_b.instance.task)
        return max(1, pod.source.clock.now - before)
    if stage == "restore":
        before = pod.target.clock.now
        mech.restore(ckpt_a, pod.target)
        return max(1, pod.target.clock.now - before)
    return 1  # "between": the crash lands outside any operation


def _recover(
    pod: Pod,
    mech,
    parent: PreparedParent,
    checkpoint,
    survivor,
) -> tuple[bool, float, str]:
    """Restore ``checkpoint`` on ``survivor`` and run one invocation.

    Returns ``(survived, recovery_ms, detail)``; recovery latency is the
    survivor's virtual-clock delta (restore + first invocation)."""
    before = survivor.clock.now
    try:
        result = mech.restore(checkpoint, survivor)
        invocation = parent.workload.invoke(
            parent.workload.placed_plan_for(parent.instance, result.task)
        )
    except NodeFailedError as exc:
        return False, 0.0, str(exc)
    recovery_ms = (survivor.clock.now - before) / MS
    return True, recovery_ms, (
        f"clone ran in {invocation.wall_ns / MS:.1f} ms on {survivor.name}"
    )


def _run_cell(
    mech_name: str,
    stage: str,
    fraction: float,
    duration_ns: int,
    function: str,
    seed: int,
) -> SweepRow:
    pod, mech, parent_a, ckpt_a = _setup(mech_name, function)
    injector = FaultInjector(seed=seed)

    if stage == "checkpoint":
        victim = pod.source
        parent_b = prepare_parent(pod, function, node=pod.source)
        deadline = pod.source.clock.now + int(fraction * duration_ns)
        injector.crash_at(victim, deadline)
        try:
            mech.checkpoint(parent_b.instance.task)
            raise AssertionError("crash alarm did not fire during checkpoint")
        except InjectedCrash:
            pass
        checkpoints = [ckpt_a]
        survivor = pod.target
    elif stage == "between":
        victim = pod.source
        injector.crash_now(victim)
        checkpoints = [ckpt_a]
        survivor = pod.target
    elif stage == "restore":
        victim = pod.target
        deadline = pod.target.clock.now + int(fraction * duration_ns)
        injector.crash_at(victim, deadline)
        try:
            mech.restore(ckpt_a, pod.target)
            raise AssertionError("crash alarm did not fire during restore")
        except InjectedCrash:
            pass
        checkpoints = [ckpt_a]
        survivor = pod.nodes[2]
    else:
        raise ValueError(f"unknown stage {stage!r}")

    survived, recovery_ms, detail = _recover(
        pod, mech, parent_a, ckpt_a, survivor
    )
    audit = audit_pod(
        pod.fabric, pod.nodes, cxlfs=pod.cxlfs, checkpoints=checkpoints
    )
    if not audit.clean:
        detail = f"LEAK: {audit.describe()}"
    return SweepRow(
        mechanism=mech_name,
        stage=stage,
        fraction=fraction,
        crashed_node=victim.name,
        survived=survived,
        recovery_ms=round(recovery_ms, 3),
        leaked_frames=audit.leaked_frames,
        detail=detail,
    )


@dataclass(frozen=True)
class Config:
    """The sweep: one function, the injector seed, and the crash points."""

    function: str = "json"
    seed: int = 0
    fractions: tuple = FULL_FRACTIONS

    @classmethod
    def quick(cls) -> "Config":
        return cls(fractions=QUICK_FRACTIONS)


def points(config: Config) -> list:
    """The sweep grid (mechanisms × stages × crash fractions) as points."""
    grid = []
    for mech_name in MECHANISMS:
        for stage in STAGES:
            cell_fractions = (0.0,) if stage == "between" else config.fractions
            for fraction in cell_fractions:
                grid.append(
                    SweepPoint.make(
                        "failure-sweep",
                        mechanism=mech_name,
                        stage=stage,
                        fraction=fraction,
                        function=config.function,
                        seed=config.seed,
                    )
                )
    return grid


def run_point(point: SweepPoint) -> SweepRow:
    """One crash-timing cell on a fresh pod (top-level and picklable).

    The crashed operation's virtual duration is re-derived from the spec
    (memoized per process), so the cell needs nothing beyond the point.
    """
    mech_name = point.param("mechanism")
    stage = point.param("stage")
    function = point.param("function")
    duration_ns = _operation_duration_ns_cached(mech_name, stage, function)
    return _run_cell(
        mech_name,
        stage,
        point.param("fraction"),
        duration_ns,
        function,
        point.param("seed"),
    )


def summarize(rows: list) -> list:
    return rows


def gates(rows: list, quick: bool) -> list:
    """A crash must never strand a frame, wherever it lands; and when the
    source dies after checkpointing (§3.1), CXLfork and CRIU-CXL clones
    still spawn, CXLfork's faster, while Mitosis' checkpoint dies with
    its parent node."""
    leaked = sum(r.leaked_frames for r in rows)
    between = {r.mechanism: r for r in rows if r.stage == "between"}
    cxlfork, criu = between["cxlfork"], between["criu-cxl"]
    return failed("failure-sweep", [
        (not leaked, f"leaked {leaked} frames"),
        (cxlfork.survived, "CXLfork did not survive its source node's crash"),
        (criu.survived, "CRIU-CXL did not survive its source node's crash"),
        (not between["mitosis-cxl"].survived,
         "Mitosis-CXL survived its parent node's crash"),
        claim("cxlfork recovery_ms", cxlfork.recovery_ms, lt=criu.recovery_ms),
    ])


def survival_rate(rows: list, mechanism: str) -> float:
    mine = [r for r in rows if r.mechanism == mechanism]
    if not mine:
        return 0.0
    return sum(1 for r in mine if r.survived) / len(mine)


def format_rows(rows: list) -> str:
    lines = [
        f"{'mechanism':<12} {'stage':<11} {'crash@':>7} {'survived':<9} "
        f"{'recovery(ms)':>13} {'leaked':>7}  detail"
    ]
    for row in rows:
        lines.append(
            f"{row.mechanism:<12} {row.stage:<11} {row.fraction:>6.0%} "
            f"{str(row.survived):<9} {row.recovery_ms:>13.2f} "
            f"{row.leaked_frames:>7}  {row.detail}"
        )
    lines.append("")
    for mech_name in MECHANISMS:
        lines.append(
            f"{mech_name:<12} survival rate: {survival_rate(rows, mech_name):.0%}"
        )
    total_leaked = sum(r.leaked_frames for r in rows)
    lines.append(f"total leaked frames: {total_leaked} (must be 0)")
    return "\n".join(lines)
