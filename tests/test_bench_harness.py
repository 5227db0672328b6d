"""The wall-clock benchmark harness: digests, baselines, and determinism.

The determinism contract is the load-bearing piece: the hot-path overhaul
(indexed VMA tree, searchsorted scans, no-empty-leaf faulting) is only a
valid optimization if simulated results are bit-identical run to run and
against the committed baseline digest.
"""

import json

import pytest

from repro import bench
from repro import experiments
from repro.bench import (
    BenchResult,
    compare_to_baseline,
    load_baseline,
    results_digest,
    run_bench,
    write_baseline,
)
from repro.experiments import fig7_performance


class TestResultsDigest:
    def test_stable_across_equal_structures(self):
        rows = [
            fig7_performance.Fig7Row(
                function="f", mechanism="m", restore_ms=1.0, fault_ms=2.0,
                exec_ms=3.0, total_ms=6.0, local_mb=4.5,
            )
        ]
        again = [
            fig7_performance.Fig7Row(
                function="f", mechanism="m", restore_ms=1.0, fault_ms=2.0,
                exec_ms=3.0, total_ms=6.0, local_mb=4.5,
            )
        ]
        assert results_digest(rows) == results_digest(again)

    def test_sensitive_to_any_field(self):
        row = fig7_performance.Fig7Row(
            function="f", mechanism="m", restore_ms=1.0, fault_ms=2.0,
            exec_ms=3.0, total_ms=6.0, local_mb=4.5,
        )
        tweaked = fig7_performance.Fig7Row(
            function="f", mechanism="m", restore_ms=1.0, fault_ms=2.0,
            exec_ms=3.0, total_ms=6.0, local_mb=4.5000001,
        )
        assert results_digest([row]) != results_digest([tweaked])

    def test_handles_numpy_and_enums(self):
        import enum

        import numpy as np

        class Kind(enum.Enum):
            A = "a"

        payload = {"arr": np.arange(3), "scalar": np.int64(7), "kind": Kind.A}
        digest = results_digest(payload)
        assert digest == results_digest(
            {"arr": [0, 1, 2], "scalar": 7, "kind": "a"}
        )


class TestBaselineRoundTrip:
    def _result(self, mode: str, wall: float, digest: str) -> BenchResult:
        return BenchResult(
            experiment="fig7", mode=mode, wall_s=wall,
            sim_results_digest=digest,
        )

    def test_write_then_compare_ok(self, tmp_path):
        full = self._result("full", 5.0, "d" * 64)
        quick = self._result("quick", 0.5, "e" * 64)
        path = write_baseline("fig7", full, quick, tmp_path)
        payload = json.loads(path.read_text())
        assert payload["wall_s"] == 5.0
        assert payload["sim_results_digest"] == "d" * 64
        assert payload["quick"]["sim_results_digest"] == "e" * 64
        assert load_baseline("fig7", tmp_path) == payload

        comparison = compare_to_baseline(full, baseline_dir=tmp_path)
        assert comparison.ok and comparison.digest_ok and comparison.wall_ok

    def test_digest_mismatch_fails_even_in_quick_mode(self, tmp_path):
        full = self._result("full", 5.0, "d" * 64)
        quick = self._result("quick", 0.5, "e" * 64)
        write_baseline("fig7", full, quick, tmp_path)
        drifted = self._result("quick", 0.5, "f" * 64)
        comparison = compare_to_baseline(drifted, baseline_dir=tmp_path)
        assert not comparison.digest_ok
        assert not comparison.ok

    def test_wall_regression_gates_full_but_not_quick(self, tmp_path):
        full = self._result("full", 5.0, "d" * 64)
        quick = self._result("quick", 0.5, "e" * 64)
        write_baseline("fig7", full, quick, tmp_path)

        slow_full = self._result("full", 5.0 * 3, "d" * 64)
        comparison = compare_to_baseline(
            slow_full, tolerance=0.5, baseline_dir=tmp_path
        )
        assert not comparison.wall_ok and comparison.wall_gated
        assert not comparison.ok

        slow_quick = self._result("quick", 0.5 * 3, "e" * 64)
        comparison = compare_to_baseline(
            slow_quick, tolerance=0.5, baseline_dir=tmp_path
        )
        assert not comparison.wall_ok and not comparison.wall_gated
        assert comparison.ok  # report-only in quick/CI mode

    def test_missing_baseline_is_ok(self, tmp_path):
        comparison = compare_to_baseline(
            self._result("full", 5.0, "d" * 64), baseline_dir=tmp_path
        )
        assert comparison.baseline is None
        assert comparison.ok


class TestDeterminism:
    """Satellite: fig7 twice, and once under ``repro bench``, same digest."""

    @pytest.fixture(scope="class")
    def quick_runs(self):
        quick = fig7_performance.Config.quick()
        first = experiments.run("fig7", quick)
        second = experiments.run("fig7", quick)
        harness = run_bench("fig7", quick=True)
        return first, second, harness

    def test_two_direct_runs_identical(self, quick_runs):
        first, second, _ = quick_runs
        assert results_digest(first) == results_digest(second)

    def test_harness_run_matches_direct_runs(self, quick_runs):
        first, _, harness = quick_runs
        assert harness.sim_results_digest == results_digest(first)

    def test_harness_digest_matches_committed_baseline(self, quick_runs):
        """Guards the same contract as CI's bench-smoke job: the optimized
        code paths must reproduce the committed simulated results."""
        _, _, harness = quick_runs
        baseline = load_baseline("fig7")
        assert baseline is not None, "BENCH_fig7.json missing"
        assert harness.sim_results_digest == baseline["quick"]["sim_results_digest"]


class TestComparisonEdgeCases:
    """Baseline wall_s of 0.0 is a real (strict) guard, not a missing one."""

    def _full(self, wall: float) -> BenchResult:
        return BenchResult(
            experiment="fig7", mode="full", wall_s=wall,
            sim_results_digest="d" * 64,
        )

    def _comparison(self, wall: float, base: dict) -> bench.Comparison:
        baseline = {"experiment": "fig7", "sim_results_digest": "d" * 64}
        baseline.update(base)
        return bench.Comparison(
            result=self._full(wall), baseline=baseline, tolerance=0.5
        )

    def test_zero_wall_baseline_gates(self):
        comparison = self._comparison(5.0, {"wall_s": 0.0})
        assert not comparison.wall_ok
        assert not comparison.ok

    def test_zero_wall_baseline_shown_in_describe(self):
        text = self._comparison(5.0, {"wall_s": 0.0}).describe()
        assert "wall vs baseline 0.00s" in text
        assert "REGRESSION" in text

    def test_missing_wall_baseline_is_unguarded(self):
        comparison = self._comparison(5.0, {})
        assert comparison.wall_ok
        assert "wall vs baseline" not in comparison.describe()

    def test_describe_notes_jobs_mismatch(self):
        comparison = bench.Comparison(
            result=BenchResult(
                experiment="fig7", mode="full", wall_s=2.0,
                sim_results_digest="d" * 64, jobs=8,
            ),
            baseline={"wall_s": 5.0, "sim_results_digest": "d" * 64, "jobs": 1},
            tolerance=0.5,
        )
        text = comparison.describe()
        assert "(jobs=8)" in text
        assert "baseline jobs=1" in text


class TestRerun:
    """The serial re-run in full mode is a check, not a measurement."""

    @pytest.fixture
    def drifting(self, monkeypatch):
        # Every run returns a different result, as a leak of scheduling
        # order or host state into simulated results would.
        runs = []

        def run(name, config, jobs=1):  # noqa: ARG001 - experiments.run shape
            runs.append(jobs)
            return [len(runs)]

        monkeypatch.setattr(bench.experiments, "run", run)
        monkeypatch.setattr(fig7_performance, "gates", lambda result, quick: [])
        return runs

    def test_divergent_update_rerun_raises(self, drifting):
        with pytest.raises(RuntimeError, match="non-deterministic"):
            run_bench("fig7", rerun=True)
        assert drifting == [1, 1]

    def test_divergent_parallel_rerun_raises(self, drifting):
        with pytest.raises(RuntimeError, match="parallel vs serial"):
            run_bench("fig7", jobs=2)
        assert drifting == [2, 1]

    def test_serial_full_run_runs_once(self, drifting):
        result = run_bench("fig7")
        assert drifting == [1]
        assert result.sim_results_digest == results_digest([1])


class TestJobsField:
    def test_to_entry_records_jobs(self):
        result = BenchResult(
            experiment="fig7", mode="full", wall_s=1.0,
            sim_results_digest="d" * 64, jobs=4,
        )
        assert result.to_entry()["jobs"] == 4

    def test_write_baseline_records_jobs(self, tmp_path):
        full = BenchResult(
            experiment="fig7", mode="full", wall_s=1.0,
            sim_results_digest="d" * 64, jobs=8,
        )
        quick = BenchResult(
            experiment="fig7", mode="quick", wall_s=0.1,
            sim_results_digest="e" * 64,
        )
        payload = json.loads(
            write_baseline("fig7", full, quick, tmp_path).read_text()
        )
        assert payload["jobs"] == 8
        assert payload["quick"]["jobs"] == 1

    def test_quick_parallel_run_matches_committed_digest(self):
        """run_bench with jobs>1 must reproduce the serial baseline digest
        (the contract CI's parallel-smoke job gates on)."""
        harness = run_bench("fig7", quick=True, jobs=2)
        assert harness.jobs == 2
        baseline = load_baseline("fig7")
        assert harness.sim_results_digest == baseline["quick"]["sim_results_digest"]


class TestBenchRegistry:
    def test_all_baselined_experiments_registered(self):
        """Every committed baseline is named after a registered experiment
        and records that same name."""
        baselines = sorted(bench.default_baseline_dir().glob("BENCH_*.json"))
        assert len(baselines) == 7
        for path in baselines:
            name = path.stem.removeprefix("BENCH_")
            assert name in experiments.REGISTRY
            assert json.loads(path.read_text())["experiment"] == name

    def test_gate_failures_fail_the_comparison(self, tmp_path):
        result = BenchResult(
            experiment="fig7", mode="quick", wall_s=0.1,
            sim_results_digest="d" * 64, gate_failures=["leaked 3 frames"],
        )
        comparison = compare_to_baseline(result, baseline_dir=tmp_path)
        assert comparison.digest_ok and not comparison.ok
        assert "gate: FAIL — leaked 3 frames" in comparison.describe()

    def test_cli_rejects_unknown_experiment(self, capsys):
        assert bench.main(["nope"]) == 2
        assert "unknown experiment" in capsys.readouterr().err
