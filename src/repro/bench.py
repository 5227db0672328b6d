"""Wall-clock benchmark harness: catch host-CPU regressions like tier-1
catches correctness regressions.

The simulator's *virtual-time* results are covered by the test suite; what
nothing guarded before this module is the *host* cost of producing them —
an accidentally quadratic scan keeps every test green while making
``python -m repro run fig7`` several times slower.  The harness times each
experiment, hashes its simulated results into a ``sim_results_digest``
(which doubles as a determinism guard: an "optimization" that changes
simulated output is a bug, not a speedup), and compares both against a
committed baseline::

    python -m repro bench fig7            # compare against the baseline
    python -m repro bench --quick fig7    # reduced scale; wall report-only
    python -m repro bench --update fig7   # rewrite the baseline

Baselines live in ``benchmarks/baselines/BENCH_<exp>.json`` with the
full-mode ``{wall_s, host_calls, sim_results_digest}`` at top level and the
quick-mode triple under ``"quick"``.  Any experiment in the
:mod:`repro.experiments` registry can be benched, in the shapes its
``Config()`` / ``Config.quick()`` define.  Digest mismatches and the
experiment's own ``gates()`` always fail; wall time fails only in full
mode when it exceeds ``baseline * (1 + tolerance)`` (quick mode is meant
for CI, where wall clocks are too noisy to gate on).
"""

from __future__ import annotations

import dataclasses
import enum
import json
import sys
import time
from hashlib import sha256
from pathlib import Path
from typing import Any, Callable, Optional

from repro import experiments

#: Default headroom before a full-mode wall-time comparison fails.
DEFAULT_TOLERANCE = 0.5


# -- digesting -----------------------------------------------------------------


def _canonical(obj: Any) -> Any:
    """Recursively convert experiment results to JSON-stable structures."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: _canonical(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if hasattr(obj, "dtype"):  # numpy array or scalar, without importing numpy
        if getattr(obj, "ndim", 0):
            return obj.tolist()
        return obj.item()
    return obj


def results_digest(result: Any) -> str:
    """Deterministic sha256 over an experiment's simulated results."""
    blob = json.dumps(_canonical(result), sort_keys=True, separators=(",", ":"))
    return sha256(blob.encode("utf-8")).hexdigest()


# -- measurement ---------------------------------------------------------------


def _count_host_calls(fn: Callable[[], Any]) -> tuple[int, Any]:
    """Run ``fn`` counting Python + C function calls via ``sys.setprofile``.

    Any profiler that was already installed (coverage tooling, a nesting
    harness run) is saved and restored afterwards rather than clobbered
    to ``None``.
    """
    count = 0

    def profiler(frame, event, arg):  # noqa: ARG001 - profile signature
        nonlocal count
        if event == "call" or event == "c_call":
            count += 1

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        result = fn()
    finally:
        sys.setprofile(previous)
    return count, result


@dataclasses.dataclass
class BenchResult:
    """One harness run of one experiment."""

    experiment: str
    mode: str  # "full" | "quick"
    wall_s: float
    host_calls: Optional[int]
    sim_results_digest: str
    #: Worker processes used for the timed run (1 = serial reference path).
    jobs: int = 1
    #: The experiment's ``gates()`` messages for this result (empty = pass).
    gate_failures: list = dataclasses.field(default_factory=list)

    def to_entry(self) -> dict:
        return {
            "wall_s": round(self.wall_s, 3),
            "host_calls": self.host_calls,
            "sim_results_digest": self.sim_results_digest,
            "jobs": self.jobs,
        }


def run_bench(
    name: str,
    *,
    quick: bool = False,
    count_calls: bool = True,
    jobs: int = 1,
) -> BenchResult:
    """Time one experiment, digest its simulated results, apply its gates.

    The timed run is unprofiled (wall_s measures the real cost) and uses
    ``jobs`` worker processes; in full mode a second, **always-serial** run
    under a call-counting profiler records ``host_calls`` — a noise-free
    proxy for host work that survives both machine changes and
    worker-count changes.  When the timed run was parallel, that serial
    recount doubles as a parallel-vs-serial digest cross-check: a
    scheduling-order leak into simulated results is a hard failure, not
    noise.
    """
    module = experiments.load(name)
    config = module.Config.quick() if quick else module.Config()
    t0 = time.perf_counter()
    result = experiments.run(name, config, jobs=jobs)
    wall_s = time.perf_counter() - t0
    digest = results_digest(result)
    host_calls: Optional[int] = None
    if count_calls and not quick:
        # host_calls is counted on a serial (jobs=1) run: profiling only
        # sees the coordinating process, so a parallel count would be a
        # meaningless fraction of the real work.
        host_calls, recount = _count_host_calls(
            lambda: experiments.run(name, config, jobs=1)
        )
        redigest = results_digest(recount)
        if redigest != digest:
            flavor = (
                "parallel vs serial simulated results diverged"
                if jobs > 1
                else "non-deterministic simulated results"
            )
            raise RuntimeError(
                f"{name}: {flavor} "
                f"({digest[:12]} vs {redigest[:12]}) — the digest guard "
                "requires runs to be bit-identical"
            )
    return BenchResult(
        experiment=name,
        mode="quick" if quick else "full",
        wall_s=wall_s,
        host_calls=host_calls,
        sim_results_digest=digest,
        jobs=jobs,
        gate_failures=module.gates(result),
    )


# -- baselines -----------------------------------------------------------------


def default_baseline_dir() -> Path:
    """``benchmarks/baselines`` at the repo root (next to ``src/``)."""
    return repo_root() / "benchmarks" / "baselines"


def repo_root() -> Path:
    return Path(__file__).resolve().parents[2]


def sync_root_copies(
    names: Optional[list] = None,
    baseline_dir: Optional[Path] = None,
    root: Optional[Path] = None,
) -> list:
    """Mirror ``benchmarks/baselines/BENCH_*.json`` to repo-root copies.

    The root copies make the current performance envelope visible without
    digging into ``benchmarks/`` (and diff noisily in review when they
    change, which is the point).  Only baselines that exist are mirrored.
    """
    root = root if root is not None else repo_root()
    written = []
    for name in names if names is not None else sorted(experiments.REGISTRY):
        source = baseline_path(name, baseline_dir)
        if not source.exists():
            continue
        target = root / source.name
        target.write_text(source.read_text())
        written.append(target)
    return written


def check_root_copies(
    names: Optional[list] = None,
    baseline_dir: Optional[Path] = None,
    root: Optional[Path] = None,
) -> list:
    """Return the baselines whose repo-root ``BENCH_*.json`` copy drifted.

    A baseline counts as drifted when its root copy is missing or its
    bytes differ from ``benchmarks/baselines/``.  CI fails on a non-empty
    result (the drift guard), so an ``--update`` that forgets
    :func:`sync_root_copies` cannot land silently.
    """
    root = root if root is not None else repo_root()
    drifted = []
    for name in names if names is not None else sorted(experiments.REGISTRY):
        source = baseline_path(name, baseline_dir)
        if not source.exists():
            continue
        copy = root / source.name
        if not copy.exists() or copy.read_text() != source.read_text():
            drifted.append(name)
    return drifted


def baseline_path(name: str, baseline_dir: Optional[Path] = None) -> Path:
    root = baseline_dir if baseline_dir is not None else default_baseline_dir()
    return root / f"BENCH_{name}.json"


def load_baseline(name: str, baseline_dir: Optional[Path] = None) -> Optional[dict]:
    path = baseline_path(name, baseline_dir)
    if not path.exists():
        return None
    with path.open() as handle:
        return json.load(handle)


def write_baseline(
    name: str,
    full: BenchResult,
    quick: BenchResult,
    baseline_dir: Optional[Path] = None,
) -> Path:
    """Write ``BENCH_<name>.json``: full-mode triple at top level (the
    ISSUE-specified shape) plus the quick-mode triple for CI."""
    path = baseline_path(name, baseline_dir)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {"experiment": name, **full.to_entry(), "quick": quick.to_entry()}
    with path.open("w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=False)
        handle.write("\n")
    return path


@dataclasses.dataclass
class Comparison:
    """Harness verdict for one experiment against its baseline."""

    result: BenchResult
    baseline: Optional[dict]
    tolerance: float

    @property
    def baseline_entry(self) -> Optional[dict]:
        if self.baseline is None:
            return None
        if self.result.mode == "quick":
            return self.baseline.get("quick")
        return {
            k: self.baseline.get(k)
            for k in ("wall_s", "host_calls", "sim_results_digest", "jobs")
        }

    @property
    def digest_ok(self) -> bool:
        entry = self.baseline_entry
        if entry is None:
            return True  # nothing to compare against
        return entry["sim_results_digest"] == self.result.sim_results_digest

    @property
    def wall_ok(self) -> bool:
        entry = self.baseline_entry
        if entry is None or entry.get("wall_s") is None:
            return True
        return self.result.wall_s <= entry["wall_s"] * (1.0 + self.tolerance)

    @property
    def wall_gated(self) -> bool:
        """Wall time only gates full-mode runs (quick mode = CI, noisy)."""
        return self.result.mode == "full"

    @property
    def ok(self) -> bool:
        return (
            self.digest_ok
            and (self.wall_ok or not self.wall_gated)
            and not self.result.gate_failures
        )

    def describe(self) -> str:
        r = self.result
        entry = self.baseline_entry
        lines = [f"{r.experiment} [{r.mode}]: wall {r.wall_s:.2f}s"]
        if r.jobs != 1:
            lines[0] += f" (jobs={r.jobs})"
        if r.host_calls is not None:
            lines[0] += f", {r.host_calls:,} host calls"
        lines[0] += f", digest {r.sim_results_digest[:12]}"
        lines.extend(f"  gate: FAIL — {message}" for message in r.gate_failures)
        if entry is None:
            lines.append("  no baseline (run with --update to create one)")
            return "\n".join(lines)
        base_wall = entry.get("wall_s")
        # Compare explicitly against None: a recorded wall of 0.0 is a
        # (vacuously strict) guard, not a missing one, and must be shown
        # with the same verdict wall_ok computes from it.
        if base_wall is not None:
            ratio = r.wall_s / base_wall if base_wall else float("inf")
            gate = "" if self.wall_gated else " (report-only)"
            verdict = "ok" if self.wall_ok else f"REGRESSION >{self.tolerance:.0%}"
            jobs_note = ""
            base_jobs = entry.get("jobs")
            if base_jobs is not None and base_jobs != r.jobs:
                jobs_note = f" (baseline jobs={base_jobs})"
            lines.append(
                f"  wall vs baseline {base_wall:.2f}s: {ratio:.2f}x "
                f"[{verdict}]{gate}{jobs_note}"
            )
        base_calls = entry.get("host_calls")
        if base_calls is not None and r.host_calls is not None:
            calls_ratio = (
                r.host_calls / base_calls if base_calls else float("inf")
            )
            lines.append(
                f"  host calls vs baseline {base_calls:,}: "
                f"{calls_ratio:.2f}x (report-only)"
            )
        if self.digest_ok:
            lines.append("  digest: match")
        else:
            lines.append(
                "  digest: MISMATCH — simulated results differ from the "
                f"baseline ({entry['sim_results_digest'][:12]})"
            )
        return "\n".join(lines)


def compare_to_baseline(
    result: BenchResult,
    *,
    tolerance: float = DEFAULT_TOLERANCE,
    baseline_dir: Optional[Path] = None,
) -> Comparison:
    return Comparison(
        result=result,
        baseline=load_baseline(result.experiment, baseline_dir),
        tolerance=tolerance,
    )


# -- CLI ----------------------------------------------------------------------


def main(argv: Optional[list[str]] = None) -> int:
    """Entry point for ``python -m repro bench`` / ``benchmarks/harness.py``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro bench",
        description="Wall-clock benchmark harness with digest determinism guard.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help="experiments to benchmark (default: every one with a baseline)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="reduced scale; wall-time comparison is report-only (CI mode)",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite the committed baselines from this run (runs both modes)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="allowed wall-time slowdown vs baseline before failing "
        f"(default {DEFAULT_TOLERANCE})",
    )
    parser.add_argument(
        "--baseline-dir",
        default=None,
        help="override the baseline directory (default: benchmarks/baselines)",
    )
    parser.add_argument(
        "--no-calls",
        action="store_true",
        help="skip the second, call-counting run in full mode",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the timed run (0 = one per CPU); "
        "results are bit-identical to --jobs 1 by construction",
    )
    parser.add_argument(
        "--check-sync",
        action="store_true",
        help="only check that repo-root BENCH_*.json copies match "
        "benchmarks/baselines/ (CI drift guard); runs nothing",
    )
    parser.add_argument(
        "--plan-off",
        action="store_true",
        help="stop memoizing restore plans (workers included): every "
        "restore builds a fresh plan; digests must still match the baselines",
    )
    args = parser.parse_args(argv)

    if args.plan_off:
        from repro.rfork.restoreplan import RESTORE_PLAN

        RESTORE_PLAN.disable()

    baseline_dir = Path(args.baseline_dir) if args.baseline_dir else None
    names = args.experiments or [
        name for name in sorted(experiments.REGISTRY)
        if baseline_path(name, baseline_dir).exists()
    ]
    unknown = [n for n in names if n not in experiments.REGISTRY]
    if unknown:
        print(
            f"unknown experiment(s) {unknown}; known: {sorted(experiments.REGISTRY)}",
            file=sys.stderr,
        )
        return 2
    if args.jobs < 0:
        print("--jobs must be >= 0", file=sys.stderr)
        return 2
    jobs = args.jobs
    if jobs == 0:
        from repro.parallel import default_jobs

        jobs = default_jobs()

    if args.check_sync:
        drifted = check_root_copies(names, baseline_dir)
        if drifted:
            print(
                f"repo-root BENCH copies drifted from benchmarks/baselines/: "
                f"{drifted} — rerun `python -m repro bench --update` or "
                "repro.bench.sync_root_copies()",
                file=sys.stderr,
            )
            return 1
        print(f"repo-root BENCH copies in sync ({len(names)} checked)")
        return 0

    if args.update:
        for name in names:
            full = run_bench(
                name, quick=False, count_calls=not args.no_calls, jobs=jobs
            )
            quick = run_bench(name, quick=True, jobs=jobs)
            failures = full.gate_failures + quick.gate_failures
            if failures:
                print(f"{name}: not updated, gates failed: {failures}",
                      file=sys.stderr)
                return 1
            path = write_baseline(name, full, quick, baseline_dir)
            print(f"{name}: wrote {path} (wall {full.wall_s:.2f}s, "
                  f"jobs {full.jobs}, digest {full.sim_results_digest[:12]})")
        for copy in sync_root_copies(names, baseline_dir):
            print(f"synced repo-root copy {copy.name}")
        return 0

    failed = False
    for name in names:
        result = run_bench(
            name, quick=args.quick, count_calls=not args.no_calls, jobs=jobs
        )
        comparison = compare_to_baseline(
            result, tolerance=args.tolerance, baseline_dir=baseline_dir
        )
        print(comparison.describe())
        if not comparison.ok:
            failed = True
    return 1 if failed else 0


__all__ = [
    "BenchResult",
    "Comparison",
    "check_root_copies",
    "compare_to_baseline",
    "default_baseline_dir",
    "load_baseline",
    "main",
    "repo_root",
    "results_digest",
    "run_bench",
    "sync_root_copies",
    "write_baseline",
]
