"""Formatting helpers of the experiment modules (the printed artifacts)."""

import pytest

from repro.experiments import (
    density,
    failure_sweep,
    fig7_performance,
    fig9_sensitivity,
    keepalive_study,
    scalability,
    write_heavy,
)
from repro.experiments.fig7_performance import Fig7Row
from repro.experiments.fig9_sensitivity import Fig9Row


class TestFormatters:
    def test_fig7_format_contains_all_columns(self):
        row = Fig7Row(
            function="bert", mechanism="cxlfork", restore_ms=1.2,
            fault_ms=0.5, exec_ms=100.0, total_ms=101.7, local_mb=30.0,
        )
        text = fig7_performance.format_rows([row])
        for token in ("bert", "cxlfork", "1.20", "101.70", "30.0"):
            assert token in text

    def test_fig9_format(self):
        row = Fig9Row(
            function="bfs", cxl_latency_ns=200.0,
            warm_relative=1.08, cold_relative=1.02,
        )
        text = fig9_sensitivity.format_rows([row])
        assert "bfs" in text and "200" in text and "1.080" in text

    def test_density_format(self):
        row = density.DensityRow(
            mechanism="cxlfork", function="bert", instances=98,
            local_mb_per_instance=31.1, cxl_shared_mb=598.9,
        )
        text = density.format_budget([row])
        assert "98" in text
        assert f"{row.dedup_saved_mb:.0f}" in text

    def test_failure_format(self):
        row = failure_sweep.SweepRow(
            mechanism="mitosis-cxl", stage="between", fraction=0.0,
            crashed_node="node0", survived=False, recovery_ms=0.0,
            leaked_frames=0, detail="checkpoint lost",
        )
        text = failure_sweep.format_rows([row])
        assert "False" in text and "checkpoint lost" in text
        assert "mitosis-cxl  survival rate: 0%" in text

    def test_write_heavy_format(self):
        row = write_heavy.WriteHeavyRow(
            write_share=0.4, restore_ms=1.3, cold_total_ms=29.1,
            child_local_frac=0.4, shared_frac=0.6,
        )
        text = write_heavy.format_rows([row])
        assert "40%" in text

    def test_scalability_format(self):
        row = scalability.ScalabilityRow(
            policy="mow", node_count=16, warm_ms=2113.1,
            fabric_utilization=0.17, local_mb_per_clone=31.5,
        )
        text = scalability.format_rows([row])
        assert "mow" in text and "16" in text

    def test_keepalive_format(self):
        row = keepalive_study.KeepAliveRow(
            window_s=10, p50_ms=7.1, p99_ms=226.0, restores=23,
            warm_hits=781, mean_dram_used_mb=1642.0,
        )
        text = keepalive_study.format_rows([row])
        assert "10" in text and "1642" in text


class TestSummariesOnSyntheticRows:
    def test_fig7_summary_ratios(self):
        rows = [
            Fig7Row("f", "cold", 0, 0, 10, 100, 100.0),
            Fig7Row("f", "localfork", 1, 1, 8, 10, 10.0),
            Fig7Row("f", "cxlfork", 1, 1, 9, 11, 5.0),
            Fig7Row("f", "criu-cxl", 20, 2, 8, 30, 95.0),
            Fig7Row("f", "mitosis-cxl", 3, 7, 8, 18, 40.0),
        ]
        summary = fig7_performance.headline(rows)
        assert summary["cold_vs_cxlfork"] == pytest.approx(100 / 11)
        assert summary["criu_vs_cxlfork"] == pytest.approx(30 / 11)
        assert summary["mem_cxlfork_vs_cold"] == pytest.approx(0.05)

    def test_write_heavy_summary_monotonicity_detection(self):
        rows = [
            write_heavy.WriteHeavyRow(0.1, 1.0, 10, 0.5, 0.5),
            write_heavy.WriteHeavyRow(0.5, 1.0, 12, 0.2, 0.8),  # regression!
        ]
        summary = write_heavy.headline(rows)
        assert not summary["savings_monotonically_blunted"]
