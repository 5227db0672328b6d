"""Corruption sweep: poison injection × detection × repair policy.

The RAS acceptance experiment.  For each (mechanism, poison-rate,
repair-policy) cell it checkpoints a parent, poisons a seed-deterministic
fraction of the image's CXL frames, then serves a fork from the image:

* **checksums on** — the restore-time verification refuses the corrupt
  image (:class:`repro.exceptions.PoisonError`); the repair policy runs
  (CoW re-copy → replica re-fetch → re-checkpoint, or a single pinned
  rung) and the serve retries.  Wrong-bytes-served must be **zero** in
  every on-cell, and the ``ladder`` policy must keep survival at 100%.
* **checksums off** (``policy="none"`` control rows) — the same corrupt
  image restores silently and the cell reports how many corrupt bytes a
  child actually mapped: the control that proves detection does work.

Every cell also audits the pod for leaked frames (poison containment
must not break refcount accounting; offlined frames are an explicit
owner class, not a leak).  Rows are bit-identical for a given seed and
for any ``--jobs`` value (the bench harness digests them), and
:func:`gates` fails the run on leaks, on wrong bytes in a checksums-on
cell, or on a checksums-off control that served no wrong bytes::

    PYTHONPATH=src python -m repro run corruption-sweep --quick
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.exceptions import PoisonError
from repro.experiments.common import Pod, PreparedParent, make_pod, prepare_parent
from repro.faults import FaultInjector, audit_pod
from repro.parallel import SweepPoint
from repro.ras import RAS, checkpoint_frames
from repro.ras.repair import Repairer
from repro.rfork.registry import get_mechanism
from repro.sim.units import MS, PAGE_SIZE

MECHANISMS = ("cxlfork", "criu-cxl")
#: The headline poison rate (fraction of image frames flipped per trial).
DEFAULT_RATE = 0.05
QUICK_RATES = (DEFAULT_RATE,)
FULL_RATES = (0.02, DEFAULT_RATE, 0.2)
QUICK_POLICIES = ("ladder", "recheckpoint")
FULL_POLICIES = ("ladder", "cow", "replica", "recheckpoint")
QUICK_TRIALS = 3
FULL_TRIALS = 6
#: Detection→repair→retry rounds before a trial is declared lost.
MAX_SERVE_ATTEMPTS = 4


@dataclass
class SweepRow:
    """One (mechanism, rate, policy, checksums) cell of the sweep."""

    mechanism: str
    rate: float
    policy: str  # "ladder" | "cow" | "replica" | "recheckpoint" | "none"
    checksums: bool
    trials: int
    survived_pct: float
    wrong_bytes: int  # corrupt bytes a child mapped; MUST be 0 with checksums
    repairs_cow: int
    repairs_replica: int
    repairs_recheckpoint: int
    p99_repair_ms: float
    offlined_frames: int
    leaked_frames: int  # pod-wide audit; MUST be zero
    detail: str


def _setup(mech_name: str, function: str):
    pod = make_pod()
    mech = get_mechanism(mech_name, fabric=pod.fabric, cxlfs=pod.cxlfs)
    parent = prepare_parent(pod, function, node=pod.source)
    return pod, mech, parent


def _repairer(policy: str, parent: PreparedParent, mech, rng) -> Optional[Repairer]:
    if policy == "none":
        return None
    return Repairer(
        policy=policy,
        parent_task=parent.instance.task,
        mechanism=mech,
        replica_available=policy in ("ladder", "replica"),
        rng=rng,
    )


def _serve(
    pod: Pod,
    mech,
    parent: PreparedParent,
    checkpoint,
    repairer: Optional[Repairer],
    *,
    checksums: bool,
):
    """One serve attempt: restore + first invocation, repairing on demand.

    Returns ``(survived, final_ckpt, wrong_bytes, repair_ns, rungs, detail)``.
    ``wrong_bytes`` counts corrupt bytes mapped by the restore that
    actually served — necessarily zero when verification is on, and the
    honest measurement (not an assumption) either way.
    """
    target = pod.target
    pool = pod.fabric.device.frames
    current = checkpoint
    repair_ns = 0
    rungs = {"cow": 0, "replica": 0, "recheckpoint": 0}
    for _ in range(MAX_SERVE_ATTEMPTS):
        bad_now = pool.poisoned_in(checkpoint_frames(current))
        try:
            with RAS.force(checksums):
                result = mech.restore(current, target)
        except PoisonError as exc:
            if repairer is None:
                return False, current, 0, repair_ns, rungs, f"unserved: {exc}"
            before = target.clock.now
            try:
                outcome = repairer.repair(current, target.clock)
            except PoisonError as exc2:
                return False, current, 0, repair_ns, rungs, f"repair failed: {exc2}"
            current = outcome.checkpoint
            rungs[outcome.rung] += 1
            repair_ns += target.clock.now - before
            continue
        wrong = int(bad_now.size) * PAGE_SIZE
        invocation = parent.workload.invoke(
            parent.workload.placed_plan_for(parent.instance, result.task)
        )
        detail = f"clone ran in {invocation.wall_ns / MS:.1f} ms"
        if wrong:
            detail = f"SERVED {wrong} corrupt bytes; " + detail
        return True, current, wrong, repair_ns, rungs, detail
    return False, current, 0, repair_ns, rungs, "restore kept failing"


def _p99(values: list) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(int(0.99 * len(ordered)), len(ordered) - 1)]


def _run_cell(
    mech_name: str,
    rate: float,
    policy: str,
    checksums: bool,
    function: str,
    seed: int,
    trials: int,
) -> SweepRow:
    survived_count = 0
    wrong_total = 0
    repair_latencies: list = []
    rung_totals = {"cow": 0, "replica": 0, "recheckpoint": 0}
    offlined = 0
    leaked = 0
    details: list = []
    for trial in range(trials):
        pod, mech, parent = _setup(mech_name, function)
        injector = FaultInjector(seed=seed + trial)
        with RAS.force(checksums):
            ckpt, _ = mech.checkpoint(parent.instance.task)
        pool = pod.fabric.device.frames
        injector.poison_random(pool, checkpoint_frames(ckpt), rate)
        repairer = _repairer(policy, parent, mech, injector.rng)
        survived, final_ckpt, wrong, repair_ns, rungs, detail = _serve(
            pod, mech, parent, ckpt, repairer, checksums=checksums
        )
        survived_count += int(survived)
        wrong_total += wrong
        if repair_ns:
            repair_latencies.append(repair_ns / MS)
        for rung, count in rungs.items():
            rung_totals[rung] += count
        offlined += pool.offlined_frames
        audit = audit_pod(
            pod.fabric, pod.nodes, cxlfs=pod.cxlfs, checkpoints=[final_ckpt]
        )
        leaked += audit.leaked_frames
        if not audit.clean:
            detail = f"LEAK: {audit.describe()}"
        if trial == 0:
            details.append(detail)
    return SweepRow(
        mechanism=mech_name,
        rate=rate,
        policy=policy,
        checksums=checksums,
        trials=trials,
        survived_pct=round(100.0 * survived_count / trials, 1),
        wrong_bytes=wrong_total,
        repairs_cow=rung_totals["cow"],
        repairs_replica=rung_totals["replica"],
        repairs_recheckpoint=rung_totals["recheckpoint"],
        p99_repair_ms=round(_p99(repair_latencies), 3),
        offlined_frames=offlined,
        leaked_frames=leaked,
        detail=details[0] if details else "",
    )


@dataclass(frozen=True)
class Config:
    """The grid: function, seed, and full or quick rates/policies/trials."""

    function: str = "json"
    seed: int = 0
    full: bool = True

    @classmethod
    def quick(cls) -> "Config":
        return cls(full=False)


def points(config: Config) -> list:
    """The grid: mechanisms × rates × policies, plus checksums-off controls."""
    rates = FULL_RATES if config.full else QUICK_RATES
    policies = FULL_POLICIES if config.full else QUICK_POLICIES
    cell = dict(
        function=config.function,
        seed=config.seed,
        trials=FULL_TRIALS if config.full else QUICK_TRIALS,
    )
    grid = []
    for mech_name in MECHANISMS:
        for rate in rates:
            for policy in policies:
                grid.append(
                    SweepPoint.make(
                        "corruption-sweep",
                        mechanism=mech_name,
                        rate=rate,
                        policy=policy,
                        checksums=True,
                        **cell,
                    )
                )
            # Control: same corruption, verification off — must serve
            # corrupt bytes, proving the detector does the work.
            grid.append(
                SweepPoint.make(
                    "corruption-sweep",
                    mechanism=mech_name,
                    rate=rate,
                    policy="none",
                    checksums=False,
                    **cell,
                )
            )
    return grid


def run_point(point: SweepPoint) -> SweepRow:
    """One cell on fresh pods (top-level and picklable for the executor)."""
    return _run_cell(
        point.param("mechanism"),
        point.param("rate"),
        point.param("policy"),
        point.param("checksums"),
        point.param("function"),
        point.derive_seed(point.param("seed")),
        point.param("trials"),
    )


def summarize(rows: list) -> list:
    return rows


def gates(rows: list, quick: bool) -> list:
    """No leaks; no wrong bytes with checksums on; some with them off."""
    failures = []
    leaked = sum(r.leaked_frames for r in rows)
    if leaked:
        failures.append(f"corruption sweep leaked {leaked} frames")
    wrong_on = sum(r.wrong_bytes for r in rows if r.checksums)
    if wrong_on:
        failures.append(
            f"corruption sweep served {wrong_on} corrupt bytes with checksums on"
        )
    if not sum(r.wrong_bytes for r in rows if not r.checksums):
        failures.append(
            "checksums-off control served no corrupt bytes: "
            "the sweep does not show the detector doing the work"
        )
    return failures


def format_rows(rows: list) -> str:
    lines = [
        f"{'mechanism':<10} {'rate':>5} {'policy':<13} {'cksum':<6} "
        f"{'survived':>8} {'wrong-bytes':>11} {'cow':>4} {'repl':>5} "
        f"{'reckpt':>7} {'p99-repair':>11} {'offlined':>9} {'leaked':>7}"
    ]
    for row in rows:
        lines.append(
            f"{row.mechanism:<10} {row.rate:>5.2f} {row.policy:<13} "
            f"{'on' if row.checksums else 'off':<6} "
            f"{row.survived_pct:>7.1f}% {row.wrong_bytes:>11} "
            f"{row.repairs_cow:>4} {row.repairs_replica:>5} "
            f"{row.repairs_recheckpoint:>7} {row.p99_repair_ms:>9.2f}ms "
            f"{row.offlined_frames:>9} {row.leaked_frames:>7}"
        )
    lines.append("")
    on_rows = [r for r in rows if r.checksums]
    off_rows = [r for r in rows if not r.checksums]
    wrong_on = sum(r.wrong_bytes for r in on_rows)
    wrong_off = sum(r.wrong_bytes for r in off_rows)
    lines.append(
        f"wrong bytes served — checksums on: {wrong_on} (must be 0), "
        f"checksums off: {wrong_off} (control; must be > 0)"
    )
    for mech_name in MECHANISMS:
        ladder = [
            r for r in on_rows
            if r.mechanism == mech_name and r.policy == "ladder"
            and r.rate == DEFAULT_RATE
        ]
        if ladder:
            lines.append(
                f"{mech_name:<10} ladder survival @ rate "
                f"{DEFAULT_RATE:.2f}: {ladder[0].survived_pct:.0f}%"
            )
    total_leaked = sum(r.leaked_frames for r in rows)
    lines.append(f"total leaked frames: {total_leaked} (must be 0)")
    return "\n".join(lines)
