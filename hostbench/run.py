#!/usr/bin/env python3
"""Host-cost benchmark of the CXLfork simulator.

    python3 hostbench/run.py --workload {serve,coldfork,seal,all} \
        --seed N --seconds S --trace {0,1}

Runs seeded episodes of one workload in this process (jobs 1) until the
timed ops have taken ``--seconds`` host seconds.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs one untraced reference episode, then
traced episodes, and reports the per-layer ledger.  The simulated results
are outputs: their digest must be identical in every episode, traced or
not, and match the recorded value at a recorded seed.  The last line of
standard output is one JSON object; the exit code is non-zero if any
correctness gate failed.  ``--workload all`` runs each workload in its
own process, one after another, and merges their results.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".hostbench")
DIGESTS = os.path.join(HERE, "digests.json")

WORKLOAD_NAMES = ("serve", "coldfork", "seal")
#: Enough timed ops per run that the 90th percentile has >= 10 beyond it.
MIN_OPS = 110
#: Stop starting new episodes after this many host seconds (the run must
#: end within 180 s).
DEADLINE_S = 140.0


def import_program():
    """Put this checkout's simulator sources first on the path."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit(f"hostbench: simulator sources not found under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"hostbench: imported repro from {repro.__file__}")


def _percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


class Run:
    """Episodes of one workload, and the gates they must pass."""

    def __init__(self, workload: str, seed: int, seconds: float, traced: bool):
        from workloads import WORKLOADS

        self.cls = WORKLOADS[workload]
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.problems: list = []
        self.setup_s: list = []
        self.op_ns: list = []
        self.op_wall_ns = 0
        self.episode_rates: list = []  # ops per host second, per episode
        self.attempted = 0
        self.failed = 0
        self.digests: list = []
        self.plan_lookups = [0, 0]  # (hits, builds) over the timed ops
        self.folds: list = []
        self.counters: dict = {}
        self.reference_wall_ns = 0
        self.spans = None

    def episode(self, ledger=None) -> None:
        from repro.bench import results_digest
        from repro.rfork.restoreplan import RESTORE_PLAN

        gc.collect()  # start every episode from the same heap state
        ep = self.cls(self.seed)
        with ep.scope():
            t0 = time.perf_counter()
            ep.setup()
            self.setup_s.append(time.perf_counter() - t0)
            before = RESTORE_PLAN.summary()
            if ledger is not None:
                ledger.install()
            t1 = time.perf_counter_ns()
            try:
                durations = ep.run_ops()
            finally:
                wall = time.perf_counter_ns() - t1
                if ledger is not None:
                    ledger.uninstall()
            after = RESTORE_PLAN.summary()
            problems = ep.audit()
            digest = results_digest(ep.results())
            counters = ep.counters()
        self.attempted += ep.planned
        self.failed += ep.planned - len(durations) + ep.failed
        if ep.error:
            print(ep.error, file=sys.stderr)
            problems.append(f"op raised {ep.error.strip().splitlines()[-1]}")
        if ep.failed:
            problems.append(f"{ep.failed} simulated request(s) failed")
        self.problems.extend(problems)
        self.digests.append(digest)
        self.counters = counters
        self.plan_lookups[0] += after["hits"] - before["hits"]
        self.plan_lookups[1] += after["builds"] - before["builds"]
        if ledger is None:
            if self.traced:
                self.reference_wall_ns = wall
                return
            self.op_ns.extend(durations)
            self.op_wall_ns += wall
            self.episode_rates.append(len(durations) / (wall / 1e9))
            return
        self.folds.append(ledger.fold(wall))
        if self.spans is None:
            self.spans = ledger.spans()
        ledger.clear()

    def execute(self) -> None:
        started = time.perf_counter()
        ledger = None
        if self.traced:
            from ledger import Ledger

            ledger = Ledger()
            self.episode()  # untraced reference for digest and overhead
        while not self.problems:
            self.episode(ledger)
            if time.perf_counter() - started > DEADLINE_S:
                break
            if self.traced:
                timed = sum(f.wall_ns for f in self.folds)
            else:
                timed = self.op_wall_ns
                if len(self.op_ns) < MIN_OPS:
                    continue
            if timed >= self.seconds * 1e9:
                break
        self.check()

    # -- gates -----------------------------------------------------------------

    def check(self) -> None:
        if len(set(self.digests)) > 1:
            self.problems.append(
                f"episodes disagree on the results digest: {sorted(set(self.digests))}"
            )
        with open(DIGESTS) as fh:
            recorded = json.load(fh)
        want = recorded["digests"][self.workload].get(str(self.seed))
        if want is not None and self.digests and self.digests[0] != want:
            self.problems.append(
                f"results digest {self.digests[0]} != recorded {want}"
            )
        hits, builds = self.plan_lookups
        if self.workload == "coldfork" and hits:
            self.problems.append(f"coldfork served {hits} restore-plan hit(s)")
        if self.workload == "serve" and not hits:
            self.problems.append("serve served no restore-plan hit")
        if not self.traced and len(self.op_ns) < MIN_OPS and not self.problems:
            self.problems.append(f"only {len(self.op_ns)} timed ops")
        if self.traced and self.folds:
            self.check_ledger()

    def check_ledger(self) -> None:
        from ledger import ENTRIES, LAYERS

        first = self.folds[0]
        for fold in self.folds:
            self.problems.extend(fold.reconcile_problems())
            if (fold.entry_calls != first.entry_calls).any() \
                    or fold.amounts != first.amounts:
                self.problems.append("traced episodes disagree on call counts")
        calls = dict(zip(LAYERS, first.calls.tolist()))
        idle = {
            "serve": ("dedup",),
            "coldfork": ("dedup", "sim.events"),
            "seal": ("sim.events",),
        }[self.workload]
        for layer in idle:
            if calls[layer]:
                self.problems.append(
                    f"{layer} made {calls[layer]} call(s) on {self.workload}, "
                    "which must bypass it"
                )
        for entry, n in zip(ENTRIES, first.entry_calls.tolist()):
            if self.workload in entry.homes and n == 0:
                self.problems.append(
                    f"{entry.target} recorded no call on {self.workload}"
                )

    # -- reporting -------------------------------------------------------------

    def end_to_end(self) -> dict:
        import resource

        op_ms = [ns / 1e6 for ns in self.op_ns] or [0.0]
        return {
            "setup_s": (statistics.median(self.setup_s), "s"),
            "ops_per_s": (statistics.median(self.episode_rates), "1/s"),
            "op_ms_p50": (_percentile(op_ms, 50), "ms"),
            "op_ms_p90": (_percentile(op_ms, 90), "ms"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
            ),
        }

    def per_layer(self) -> dict:
        import numpy as np

        from ledger import ENTRIES, LAYERS

        folds = self.folds
        first = folds[0]
        n = len(folds)
        wall_s = sum(f.wall_ns for f in folds) / 1e9
        self_s = sum(f.self_ns for f in folds) / 1e9 / n
        out: dict = {}
        for i, layer in enumerate(LAYERS):
            out[f"{layer}.calls"] = (int(first.calls[i]), "count")
            out[f"{layer}.self_s"] = (float(self_s[i]), "s")
            out[f"{layer}.share"] = (float(self_s[i] * n / wall_s), "frac")

        def rate(amount, layer):
            seconds = self_s[LAYERS.index(layer)]
            return float(amount / seconds) if seconds else 0.0

        def pct(layer, q):
            us = np.concatenate([f.durations_us[layer] for f in folds])
            return float(np.percentile(us, q)) if us.size else 0.0

        amounts = first.amounts
        pages = amounts["pages_touched"]
        invocations = int(first.calls[LAYERS.index("faas.invocation")])
        kernel_ns = self_s[LAYERS.index("os.kernel")] * 1e9
        out["os.kernel.pages_touched"] = (pages, "count")
        out["os.kernel.faults"] = (amounts["faults"], "count")
        out["os.kernel.ns_per_touched_page"] = (
            float(kernel_ns / pages) if pages else 0.0, "ns/page"
        )
        for layer in ("faas.invocation", "rfork.checkpoint", "rfork.restore"):
            out[f"{layer}.us_p50"] = (pct(layer, 50), "us")
            out[f"{layer}.us_p90"] = (pct(layer, 90), "us")
        out["faas.invocation.kernel_entries_per_call"] = (
            first.kernel_entries_from_invocation / invocations if invocations else 0.0,
            "count",
        )
        hits, builds = self.plan_lookups
        out["rfork.restoreplan.hit_ratio"] = (
            hits / (hits + builds) if hits + builds else 0.0, "frac"
        )
        codec_mb = amounts["codec_bytes"] / (1 << 20)
        out["serial.codec.mb"] = (codec_mb, "MB")
        out["serial.codec.mb_per_s"] = (rate(codec_mb, "serial.codec"), "MB/s")
        out["faults.audit.frames_per_s"] = (
            rate(amounts["audit_frames"], "faults.audit"), "frames/s"
        )
        c = self.counters
        sealed = c.get("dedup_hits", 0) + c.get("dedup_misses", 0)
        targets = [e.target for e in ENTRIES]
        lookups = int(first.entry_calls[
            targets.index("repro.dedup.chunkindex:ChunkIndex.lookup")
        ])
        out["dedup.lookups_per_sealed_page"] = (
            lookups / sealed if sealed else 0.0, "count"
        )
        out["dedup.hit_ratio"] = (
            c.get("dedup_hits", 0) / sealed if sealed else 0.0, "frac"
        )
        out["cluster.router.reroutes"] = (c.get("reroutes", 0), "count")
        out["cluster.router.pulls"] = (c.get("pulls", 0), "count")
        out["cluster.replication.wire_mb"] = (
            c.get("wire_bytes", 0) / (1 << 20), "MB"
        )
        out["unattributed_s"] = (
            sum(f.unattributed_ns for f in folds) / 1e9 / n, "s"
        )
        out["trace_overhead_frac"] = (
            (wall_s / n) / (self.reference_wall_ns / 1e9) - 1.0, "frac"
        )
        return out

    def write_spans(self) -> None:
        """Write the first traced episode's spans next to the checkout."""
        import numpy as np

        from ledger import ENTRIES, LAYERS

        if self.spans is None:
            return
        os.makedirs(OUT_DIR, exist_ok=True)
        np.savez(
            os.path.join(OUT_DIR, f"spans-{self.workload}-{self.seed}.npz"),
            entries=np.array([e.target for e in ENTRIES]),
            entry_layer=np.array([LAYERS.index(e.layer) for e in ENTRIES]),
            layers=np.array(LAYERS),
            **self.spans,
        )


def _format(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_all(args) -> int:
    """Every workload, each in its own process, one after another.  The
    last line merges their results, each metric prefixed by its workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            merged["correct"] = False
            continue
        merged["correct"] &= proc.returncode == 0 and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",),
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the recorded default)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="host seconds of timed ops to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report the per-layer ledger instead")
    args = parser.parse_args(argv)
    import_program()
    if args.workload == "all":
        return run_all(args)
    if args.seed is None:
        with open(DIGESTS) as fh:
            args.seed = json.load(fh)["default_seed"]

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    run.execute()
    metrics = run.per_layer() if run.traced and run.folds else run.end_to_end()
    mode = "traced" if run.traced else "untraced"
    print(f"hostbench {args.workload} seed={args.seed} {mode}: "
          f"{len(run.digests)} episode(s), digest {run.digests[0]}")
    if run.traced:
        print(f"  traced episodes: {len(run.folds)}; "
              f"trace overhead {metrics['trace_overhead_frac'][0]:+.1%}")
    else:
        p90 = metrics["op_ms_p90"][0]
        beyond = sum(1 for ns in run.op_ns if ns / 1e6 > p90)
        print(f"  timed ops: {len(run.op_ns)} ({beyond} beyond p90); "
              f"set-ups: {len(run.setup_s)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {_format(value):>14} {unit}")
    if run.folds:
        from ledger import ENTRIES

        print("  calls per entry point (first traced episode):")
        for entry, n in zip(ENTRIES, run.folds[0].entry_calls.tolist()):
            print(f"    {entry.target:<56} {n:>10}")
    frac = run.failed / run.attempted if run.attempted else 0.0
    print(f"  {'failed_frac':<44} {_format(frac):>14} "
          f"({run.failed} failed / {run.attempted} attempted)")
    run.write_spans()
    for problem in run.problems:
        print(f"  GATE FAILED: {problem}")
    correct = not run.problems
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
