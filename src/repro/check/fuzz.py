"""Seed-reproducible scenario fuzzer for the rfork mechanisms.

Generates a randomized but fully deterministic workload — a synthetic
parent address space plus an interleaving of fork / write / read / migrate
/ crash / exit operations — and drives it through **all three checkpoint
mechanisms in lockstep**, one independent pod per mechanism.  After every
operation the differential oracle re-verifies the touched tasks (child
views must equal snapshot ⊕ write-ledger, and must match each other across
mechanisms page-for-page) and the invariant checker sweeps the pods; clock
barriers and crashes additionally run the full frame-leak audit.

Two front ends share the generator:

* :func:`generate_scenario` — pure ``seed -> Scenario``; the CLI
  (``python -m repro check --seed N --steps M``) replays any failure
  exactly from its seed.
* :func:`scenario_strategy` — a Hypothesis strategy over the same space,
  used by the property tests so shrinking reduces a failing interleaving
  to a minimal one.

Operation semantics (per the paper's model):

* ``write``/``read`` — a child touches a window of one segment.  Writes
  CoW checkpoint-resident pages local and enter the scenario ledger.
* ``migrate`` — a bulk read of a whole segment: under migrate-on-access
  policies (and Mitosis) this *is* page migration; under migrate-on-write
  it maps the CXL replicas.  Either way the resolved view must not change.
* ``parent_write`` — the parent mutates itself *after* the checkpoint;
  no child may observe it (checkpoint immutability, §4.2).
* ``spawn`` — every mechanism restores one more child from the same
  checkpoint; its fresh view must equal the original snapshot exactly.
* ``exit`` — a child exits on every pod; leaf refcounts must drop cleanly.
* ``crash`` — a bystander node (never the source or target) fails;
  nothing any surviving task can see may change.
* ``barrier`` — full invariant sweep + frame-leak audit on every pod.

Localfork is deliberately not part of the lockstep set: its children clone
the *live* parent, so after a ``parent_write`` they legitimately differ
from checkpoint-based children.  The oracle unit tests cover it separately.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.check import CHECK, CheckFailure
from repro.check.invariants import check_pod
from repro.check.oracle import DifferentialOracle, diff_views, resolve_view
from repro.exceptions import PoisonError
from repro.experiments.common import Pod, make_pod
from repro.rfork.registry import get_mechanism
from repro.sim.units import GIB

DEFAULT_MECHANISMS = ("cxlfork", "criu-cxl", "mitosis-cxl")


@dataclass(frozen=True)
class Segment:
    """One VMA of the synthetic parent."""

    kind: str  # "anon" | "file" | "file_rw"
    npages: int
    populate: bool
    path: Optional[str] = None


@dataclass(frozen=True)
class Op:
    """One fuzzed operation (fields unused by a kind are zero)."""

    kind: str
    child: int = 0
    seg: int = 0
    offset: int = 0
    length: int = 0


@dataclass(frozen=True)
class Scenario:
    """A fully deterministic workload: replayable from its seed alone."""

    seed: int
    policy: str  # cxlfork tiering policy: mow | moa | hybrid
    segments: Tuple[Segment, ...]
    prewrites: Tuple[Tuple[int, int, int], ...]  # (seg, offset, length)
    ops: Tuple[Op, ...]


def generate_scenario(seed: int, steps: int = 60) -> Scenario:
    """Deterministically derive a scenario from ``seed``."""
    rng = np.random.default_rng(seed)
    segments: List[Segment] = []
    for _ in range(int(rng.integers(2, 5))):
        segments.append(
            Segment("anon", int(rng.integers(16, 97)), bool(rng.random() < 0.6))
        )
    for i in range(int(rng.integers(1, 3))):
        segments.append(
            Segment(
                "file",
                int(rng.integers(16, 65)),
                bool(rng.random() < 0.8),
                path=f"/lib/fz-{seed}-{i}.so",
            )
        )
    for i in range(int(rng.integers(0, 2))):
        segments.append(
            Segment(
                "file_rw",
                int(rng.integers(16, 65)),
                True,
                path=f"/data/fz-{seed}-{i}.bin",
            )
        )

    def window(seg: Segment) -> Tuple[int, int]:
        length = int(rng.integers(1, seg.npages + 1))
        offset = int(rng.integers(0, seg.npages - length + 1))
        return offset, length

    prewrites: List[Tuple[int, int, int]] = []
    for si, seg in enumerate(segments):
        writable = seg.kind in ("anon", "file_rw")
        if writable and rng.random() < 0.7:
            offset, length = window(seg)
            prewrites.append((si, offset, length))

    writable_segs = [
        i for i, s in enumerate(segments) if s.kind in ("anon", "file_rw")
    ]
    ops: List[Op] = []
    alive = [0]  # child 0 is always spawned by the runner before the ops
    next_child = 1
    crashed = False
    kinds = ["write", "read", "migrate", "parent_write", "spawn", "exit",
             "crash", "barrier"]
    weights = np.array([0.30, 0.22, 0.10, 0.10, 0.08, 0.06, 0.04, 0.10])
    weights /= weights.sum()
    for _ in range(steps):
        kind = str(rng.choice(kinds, p=weights))
        if kind == "exit" and len(alive) < 2:
            kind = "read"
        if kind == "crash" and crashed:
            kind = "barrier"
        if kind in ("write", "parent_write"):
            seg = int(rng.choice(writable_segs))
            offset, length = window(segments[seg])
            child = int(rng.choice(alive)) if kind == "write" else 0
            ops.append(Op(kind, child=child, seg=seg, offset=offset, length=length))
        elif kind == "read":
            seg = int(rng.integers(0, len(segments)))
            offset, length = window(segments[seg])
            ops.append(Op(kind, child=int(rng.choice(alive)), seg=seg,
                          offset=offset, length=length))
        elif kind == "migrate":
            seg = int(rng.integers(0, len(segments)))
            ops.append(Op(kind, child=int(rng.choice(alive)), seg=seg,
                          offset=0, length=segments[seg].npages))
        elif kind == "spawn":
            ops.append(Op(kind, child=next_child))
            alive.append(next_child)
            next_child += 1
        elif kind == "exit":
            victim = int(rng.choice(alive))
            alive.remove(victim)
            ops.append(Op(kind, child=victim))
        elif kind == "crash":
            crashed = True
            ops.append(Op(kind))
        else:
            ops.append(Op("barrier"))
    policy = str(rng.choice(["mow", "moa", "hybrid"]))
    return Scenario(
        seed=seed,
        policy=policy,
        segments=tuple(segments),
        prewrites=tuple(prewrites),
        ops=tuple(ops),
    )


def scenario_strategy(max_steps: int = 40):
    """Hypothesis strategy over the scenario space (imported lazily so the
    CLI works without hypothesis installed)."""
    import hypothesis.strategies as st

    return st.builds(
        lambda seed, steps: generate_scenario(int(seed), steps=int(steps)),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=5, max_value=max_steps),
    )


def _make_policy(name: str):
    if name == "moa":
        from repro.tiering.moa import MigrateOnAccess

        return MigrateOnAccess()
    if name == "hybrid":
        from repro.tiering.hybrid import HybridTiering

        return HybridTiering()
    from repro.tiering.mow import MigrateOnWrite

    return MigrateOnWrite()


class _MechanismRun:
    """One mechanism's pod, parent, checkpoint, and children."""

    def __init__(self, mech_name: str, scenario: Scenario) -> None:
        self.name = mech_name
        self.scenario = scenario
        self.pod: Pod = make_pod(node_count=3, dram_bytes=1 * GIB, cxl_bytes=1 * GIB)
        kernel = self.pod.source.kernel
        self.parent = kernel.spawn_task(f"fz-parent-{scenario.seed}")
        self.seg_starts: List[int] = []
        for seg in scenario.segments:
            if seg.kind == "anon":
                vma = kernel.map_anon_region(
                    self.parent, seg.npages, label="fz-anon", populate=seg.populate
                )
            else:
                vma = kernel.map_file_region(
                    self.parent,
                    seg.path,
                    seg.npages,
                    writable=seg.kind == "file_rw",
                    label="fz-file",
                    populate=seg.populate,
                )
            self.seg_starts.append(vma.start_vpn)
        for seg_i, offset, length in scenario.prewrites:
            kernel.access_range(
                self.parent, self.seg_starts[seg_i] + offset, length, write=True
            )
        # A bystander task on the third node gives crashes something to kill.
        bystander_kernel = self.pod.nodes[2].kernel
        self.bystander = bystander_kernel.spawn_task("fz-bystander")
        bystander_kernel.map_anon_region(self.bystander, 32, label="fz-decoy")

        self.oracle = DifferentialOracle(self.parent, label=mech_name)
        self.mechanism = get_mechanism(
            mech_name, fabric=self.pod.fabric, cxlfs=self.pod.cxlfs
        )
        self.policy = (
            _make_policy(scenario.policy) if mech_name == "cxlfork" else None
        )
        self.checkpoint, _ = self.mechanism.checkpoint(self.parent)
        self.children: Dict[int, object] = {}

    @property
    def live_checkpoints(self) -> list:
        return [self.checkpoint]

    def spawn(self, index: int) -> None:
        result = self.mechanism.restore(
            self.checkpoint, self.pod.target, policy=self.policy
        )
        self.children[index] = result.task

    def exit_child(self, index: int) -> None:
        task = self.children.pop(index)
        self.pod.target.kernel.exit_task(task)

    def crash_bystander(self) -> None:
        self.pod.nodes[2].fail()

    def check_invariants(self, *, audit: bool) -> None:
        check_pod(
            self.pod.fabric,
            self.pod.nodes,
            cxlfs=self.pod.cxlfs,
            checkpoints=self.live_checkpoints,
            audit=audit,
            raise_on_violation=True,
        )


@dataclass
class ScenarioResult:
    """Outcome of one lockstep run."""

    scenario: Scenario
    mechanisms: Tuple[str, ...]
    ops_applied: int = 0
    steps: int = 0  # per-mechanism operation applications
    oracle_runs: int = 0
    failure: Optional[str] = None
    ledgers: Dict[int, Dict[int, int]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.failure is None


class ScenarioRunner:
    """Drives one scenario through every mechanism in lockstep."""

    def __init__(
        self,
        scenario: Scenario,
        mechanisms: Tuple[str, ...] = DEFAULT_MECHANISMS,
    ) -> None:
        self.scenario = scenario
        self.mechanisms = tuple(mechanisms)
        self.runs = [_MechanismRun(name, scenario) for name in self.mechanisms]
        starts = self.runs[0].seg_starts
        for run in self.runs[1:]:
            if run.seg_starts != starts:
                raise CheckFailure(
                    f"non-deterministic layout: {run.name} placed segments at "
                    f"{run.seg_starts}, {self.runs[0].name} at {starts}"
                )
        self.seg_starts = starts
        #: Per-child write ledger (vpn -> op index), mechanism-independent.
        self.ledgers: Dict[int, Dict[int, int]] = {0: {}}
        self.parent_ledger: Dict[int, int] = {}
        self.result = ScenarioResult(scenario, self.mechanisms)

    # -- verification helpers ----------------------------------------------

    def _verify_child(self, index: int) -> None:
        ledger = self.ledgers[index]
        first = None
        for run in self.runs:
            task = run.children[index]
            run.oracle.verify_child(task, ledger, label=f"child{index}")
            self.result.oracle_runs += 1
            if first is None:
                first = (run, task)
            else:
                first[0].oracle.compare_children(
                    first[1], task, ledger,
                    label=f"child{index}:{first[0].name}-vs-{run.name}",
                )
                self.result.oracle_runs += 1

    def _verify_parent(self) -> None:
        for run in self.runs:
            run.oracle.verify_parent_pristine(self.parent_ledger)
            expected = run.oracle.snapshot.overlay_writes(self.parent_ledger)
            actual = resolve_view(run.parent, run.oracle.snapshot, self.parent_ledger)
            report = diff_views(expected, actual, label=f"{run.name}/parent")
            if not report.clean:
                raise CheckFailure(report.describe())
            self.result.oracle_runs += 1

    def _verify_all(self) -> None:
        self._verify_parent()
        for index in self.ledgers:
            if index in self.runs[0].children:
                self._verify_child(index)

    # -- op application -----------------------------------------------------

    def _apply(self, op_index: int, op: Op) -> None:
        start = self.seg_starts[op.seg] + op.offset if op.kind in (
            "write", "read", "migrate", "parent_write"
        ) else 0
        if op.kind in ("write", "read", "migrate"):
            if op.child not in self.ledgers:  # exited; treat as barrier
                op = Op("barrier")
            else:
                write = op.kind == "write"
                for run in self.runs:
                    run.pod.target.kernel.access_range(
                        run.children[op.child], start, op.length, write=write
                    )
                if write:
                    ledger = self.ledgers[op.child]
                    for vpn in range(start, start + op.length):
                        ledger[vpn] = op_index
                self._verify_child(op.child)
                return
        if op.kind == "parent_write":
            for run in self.runs:
                run.pod.source.kernel.access_range(
                    run.parent, start, op.length, write=True
                )
            for vpn in range(start, start + op.length):
                self.parent_ledger[vpn] = op_index
            self._verify_parent()
            # Checkpoint immutability: no child may have observed the write.
            for index in list(self.ledgers):
                if index in self.runs[0].children:
                    self._verify_child(index)
            return
        if op.kind == "spawn":
            for run in self.runs:
                run.spawn(op.child)
            self.ledgers[op.child] = {}
            self._verify_child(op.child)
            return
        if op.kind == "exit":
            for run in self.runs:
                run.exit_child(op.child)
            del self.ledgers[op.child]
            for run in self.runs:
                run.check_invariants(audit=False)
            return
        if op.kind == "crash":
            for run in self.runs:
                run.crash_bystander()
                run.check_invariants(audit=True)
            self._verify_all()
            return
        # barrier
        for run in self.runs:
            run.check_invariants(audit=True)
        self._verify_all()

    def run(self) -> ScenarioResult:
        for run in self.runs:
            run.spawn(0)
        self._verify_child(0)
        for run in self.runs:
            run.check_invariants(audit=True)
        for op_index, op in enumerate(self.scenario.ops):
            self._apply(op_index, op)
            self.result.ops_applied += 1
            self.result.steps += len(self.runs)
        # Final barrier: everything verified, everything audited.
        self._verify_all()
        for run in self.runs:
            run.check_invariants(audit=True)
        self.result.ledgers = self.ledgers
        return self.result


def run_scenario(
    seed: int,
    steps: int = 60,
    mechanisms: Tuple[str, ...] = DEFAULT_MECHANISMS,
) -> ScenarioResult:
    """Generate + run one scenario; raises :class:`CheckFailure` on any
    divergence or invariant violation."""
    scenario = generate_scenario(seed, steps=steps)
    return ScenarioRunner(scenario, mechanisms).run()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro check",
        description="Differential rfork fuzzer: oracle + invariants, every step.",
    )
    parser.add_argument("--seed", type=int, default=0, help="base scenario seed")
    parser.add_argument("--steps", type=int, default=60,
                        help="operations per scenario (default 60)")
    parser.add_argument("--scenarios", type=int, default=1,
                        help="number of consecutive seeds to run")
    parser.add_argument("--mechanisms", default=",".join(DEFAULT_MECHANISMS),
                        help="comma-separated lockstep mechanism set")
    parser.add_argument("--list-mutations", action="store_true",
                        help="list known seeded mutations and exit")
    args = parser.parse_args(argv)
    if args.list_mutations:
        from repro.check import mutation

        for name, description in mutation.KNOWN.items():
            print(f"{name:<16} {description}")
        return 0

    mechanisms = tuple(m.strip() for m in args.mechanisms.split(",") if m.strip())
    CHECK.zero()
    status = 0
    total_steps = 0
    with CHECK.force(True):
        for i in range(args.scenarios):
            seed = args.seed + i
            try:
                result = run_scenario(seed, steps=args.steps, mechanisms=mechanisms)
            except CheckFailure as failure:
                print(f"seed {seed}: FAILED\n{failure}", file=sys.stderr)
                status = 1
                break
            except PoisonError as poison:
                # The RAS checksum detector firing is also a caught bug: the
                # flip-frame-byte mutation surfaces here, not as an oracle
                # divergence (the corrupt image is refused before it serves).
                print(f"seed {seed}: FAILED (poison detected)\n{poison}",
                      file=sys.stderr)
                status = 1
                break
            total_steps += result.steps
            print(
                f"seed {seed}: ok — {result.ops_applied} op(s) x "
                f"{len(mechanisms)} mechanism(s) = {result.steps} step(s), "
                f"{result.oracle_runs} oracle run(s)"
            )
    print(CHECK.describe())
    print(f"total fuzzer steps: {total_steps}")
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())


__all__ = [
    "DEFAULT_MECHANISMS",
    "Op",
    "Scenario",
    "ScenarioResult",
    "ScenarioRunner",
    "Segment",
    "generate_scenario",
    "run_scenario",
    "scenario_strategy",
    "main",
]
