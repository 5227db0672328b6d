"""Experiment modules: reduced-scale smoke tests of run/headline/format.

The benchmarks run the full-scale versions and assert the paper shapes;
these just guarantee every experiment's plumbing works on a small input
(so a refactor can't silently break a figure between benchmark runs).
"""

import pytest

from repro.experiments import (
    checkpoint_perf,
    failure_sweep,
    fig1_footprint,
    fig6_coldstart,
    fig7_performance,
    fig8_tiering,
    fig9_sensitivity,
    fig10_porter,
    keepalive_study,
    run,
    scalability,
    table1,
)

SMALL = ("float", "json")


class TestSingleMechanismExperiments:
    def test_table1(self):
        rows = run("table1")
        assert len(rows) == 10
        assert "Footprint" in table1.format_rows(rows)

    def test_fig1(self):
        rows = run("fig1", fig1_footprint.Config(functions=SMALL, invocations=8))
        assert len(rows) == 2
        avg = fig1_footprint.averages(rows)
        assert avg["init"] + avg["read_only"] + avg["read_write"] == pytest.approx(1.0)
        assert "float" in fig1_footprint.format_rows(rows)

    def test_fig6(self):
        rows = run("fig6", fig6_coldstart.Config(functions=SMALL))
        assert all(r.container_create_ms > 0 for r in rows)
        assert fig6_coldstart.headline(rows)["container_create_ms_spread"] == 0

    def test_fig7(self):
        rows = run(
            "fig7",
            fig7_performance.Config(functions=SMALL, mechanisms=("localfork", "cxlfork")),
        )
        assert len(rows) == 4
        summary = fig7_performance.headline(rows)
        assert summary["cxlfork_vs_localfork"] > 0
        assert "restore" in fig7_performance.format_rows(rows)

    def test_fig8(self):
        rows = run("fig8", fig8_tiering.Config(functions=("float",), warm_invocations=1))
        assert {r.policy for r in rows} == {"mow", "moa", "hybrid"}
        summary = fig8_tiering.headline(rows)
        assert summary["moa_mem_vs_mow"] > 1.0

    def test_fig9(self):
        rows = run(
            "fig9",
            fig9_sensitivity.Config(functions=("float",), latencies=(400.0, 100.0)),
        )
        assert len(rows) == 2
        summary = fig9_sensitivity.headline(rows)
        assert "float_warm_gain" in summary

    def test_checkpoint_perf(self):
        rows = run("checkpoint", checkpoint_perf.Config(functions=("float",)))
        summary = checkpoint_perf.headline(rows)
        assert summary["criu_vs_cxlfork"] > 1.0


class TestPlatformExperiments:
    def test_fig10_tiny(self):
        config = fig10_porter.Config(
            total_rps=15, duration_s=3, functions=SMALL, cpu_count=8,
            arms=("criu-cxl", "cxlfork"),
        )
        rows = run("fig10", config)
        all_rows = [r for r in rows if r.function == "ALL"]
        assert len(all_rows) == 2
        summary = fig10_porter.headline(rows)
        assert "mem100_cxlfork_p99_vs_criu" in summary

    def test_keepalive_tiny(self):
        rows = run("keepalive", keepalive_study.Config.quick())
        assert len(rows) == 2
        assert rows[0].warm_hits + rows[0].restores > 0

    def test_failure(self):
        """§3.1: crash the source node between checkpoint and restore."""
        rows = run("failure-sweep", failure_sweep.Config.quick())
        between = {r.mechanism: r for r in rows if r.stage == "between"}
        outcomes = {mech: row.survived for mech, row in between.items()}
        assert outcomes == {
            "cxlfork": True, "criu-cxl": True, "mitosis-cxl": False,
        }
        assert between["cxlfork"].recovery_ms < between["criu-cxl"].recovery_ms

    def test_scalability_tiny(self):
        rows = run(
            "scalability",
            scalability.Config(node_counts=(2,), policies=("mow",), function="float"),
        )
        assert len(rows) == 1
        assert rows[0].warm_ms > 0
