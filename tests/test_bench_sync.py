"""Repo-root BENCH_*.json mirroring: sync_root_copies + the CI drift guard."""

from __future__ import annotations

import json

from repro import bench
from repro.experiments import REGISTRY
from repro.bench import (
    BenchResult,
    check_root_copies,
    sync_root_copies,
    write_baseline,
)


def _result(mode: str, digest: str) -> BenchResult:
    return BenchResult(
        experiment="fig7",
        mode=mode,
        wall_s=1.0,
        host_calls=10 if mode == "full" else None,
        sim_results_digest=digest,
    )


class TestSyncRootCopies:
    def test_mirrors_existing_baselines_only(self, tmp_path):
        baselines = tmp_path / "baselines"
        root = tmp_path / "root"
        root.mkdir()
        write_baseline("fig7", _result("full", "a" * 64),
                       _result("quick", "b" * 64), baselines)

        written = sync_root_copies(["fig7", "fig3"], baselines, root)
        assert [p.name for p in written] == ["BENCH_fig7.json"]
        copy = root / "BENCH_fig7.json"
        assert copy.read_text() == (baselines / "BENCH_fig7.json").read_text()

    def test_overwrites_stale_copy(self, tmp_path):
        baselines = tmp_path / "baselines"
        root = tmp_path / "root"
        root.mkdir()
        write_baseline("fig7", _result("full", "a" * 64),
                       _result("quick", "b" * 64), baselines)
        (root / "BENCH_fig7.json").write_text("{\"stale\": true}\n")

        sync_root_copies(["fig7"], baselines, root)
        payload = json.loads((root / "BENCH_fig7.json").read_text())
        assert payload["sim_results_digest"] == "a" * 64

    def test_default_names_cover_all_registered_experiments(self, tmp_path):
        baselines = tmp_path / "baselines"
        root = tmp_path / "root"
        root.mkdir()
        for name in REGISTRY:
            write_baseline(name, _result("full", "a" * 64),
                           _result("quick", "b" * 64), baselines)
        written = sync_root_copies(None, baselines, root)
        assert {p.name for p in written} == {
            f"BENCH_{name}.json" for name in REGISTRY
        }


class TestCheckRootCopies:
    def test_clean_after_sync(self, tmp_path):
        baselines = tmp_path / "baselines"
        root = tmp_path / "root"
        root.mkdir()
        write_baseline("fig7", _result("full", "a" * 64),
                       _result("quick", "b" * 64), baselines)
        sync_root_copies(["fig7"], baselines, root)
        assert check_root_copies(["fig7"], baselines, root) == []

    def test_missing_copy_is_drift(self, tmp_path):
        baselines = tmp_path / "baselines"
        root = tmp_path / "root"
        root.mkdir()
        write_baseline("fig7", _result("full", "a" * 64),
                       _result("quick", "b" * 64), baselines)
        assert check_root_copies(["fig7"], baselines, root) == ["fig7"]

    def test_edited_copy_is_drift(self, tmp_path):
        baselines = tmp_path / "baselines"
        root = tmp_path / "root"
        root.mkdir()
        write_baseline("fig7", _result("full", "a" * 64),
                       _result("quick", "b" * 64), baselines)
        sync_root_copies(["fig7"], baselines, root)
        (root / "BENCH_fig7.json").write_text("{}\n")
        assert check_root_copies(["fig7"], baselines, root) == ["fig7"]

    def test_absent_baseline_is_not_drift(self, tmp_path):
        baselines = tmp_path / "baselines"
        root = tmp_path / "root"
        root.mkdir()
        assert check_root_copies(["fig7"], baselines, root) == []


class TestCommittedRepoInSync:
    """The actual drift guard: committed root copies match baselines/."""

    def test_committed_root_copies_match_baselines(self):
        drifted = check_root_copies()
        assert drifted == [], (
            f"repo-root BENCH copies drifted from benchmarks/baselines/ for "
            f"{drifted}; run repro.bench.sync_root_copies()"
        )

    def test_cli_check_sync_passes_on_committed_tree(self, capsys):
        assert bench.main(["--check-sync"]) == 0
        assert "in sync" in capsys.readouterr().out
