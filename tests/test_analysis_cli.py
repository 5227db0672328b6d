"""Analysis helpers and the CLI."""

import pytest

from repro.__main__ import main
from repro.analysis.stats import geometric_mean, percentile, summary_stats
from repro.analysis.tables import format_table
from repro.experiments import REGISTRY


class TestStats:
    def test_geometric_mean(self):
        assert geometric_mean([1, 4]) == pytest.approx(2.0)
        assert geometric_mean([2, 2, 2]) == pytest.approx(2.0)

    def test_geometric_mean_skips_nonpositive(self):
        assert geometric_mean([0, -5, 4]) == pytest.approx(4.0)
        assert geometric_mean([]) == 0.0

    def test_percentile(self):
        assert percentile(range(1, 101), 50) == pytest.approx(50.5)
        assert percentile([], 99) is None

    def test_summary_stats(self):
        stats = summary_stats([1.0, 2.0, 3.0])
        assert stats["min"] == 1.0
        assert stats["max"] == 3.0
        assert stats["count"] == 3
        assert summary_stats([]) == {}


class TestTables:
    def test_alignment(self):
        table = format_table(["name", "value"], [["a", 1.5], ["bbbb", 22.25]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert "bbbb" in lines[3]
        assert "22.25" in lines[3]

    def test_markdown(self):
        table = format_table(["x"], [["y"]], markdown=True)
        assert table.splitlines()[0].startswith("| x")
        assert set(table.splitlines()[1]) <= {"|", "-"}

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["only-one"]])


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in REGISTRY:
            assert name in out

    def test_run_table1(self, capsys):
        assert main(["run", "table1"]) == 0
        out = capsys.readouterr().out
        assert "bert" in out

    def test_run_unknown(self, capsys):
        assert main(["run", "nope"]) == 2

    def test_trace_fig6(self, capsys, tmp_path):
        import json

        from repro.telemetry import TRACE

        trace_path = tmp_path / "trace.json"
        jsonl_path = tmp_path / "spans.jsonl"
        assert main([
            "trace", "fig6",
            "-o", str(trace_path),
            "--jsonl", str(jsonl_path),
        ]) == 0
        assert not TRACE.enabled  # disabled again afterwards
        out = capsys.readouterr().out
        assert "Phase breakdown" in out
        assert "faas.container_create" in out
        document = json.loads(trace_path.read_text())
        assert document["traceEvents"]
        assert all(json.loads(line) for line in jsonl_path.read_text().splitlines())
        # Fig. 6's reported totals equal the traced span totals within 1%.
        from repro.telemetry import Breakdown

        breakdown = Breakdown.from_tracer(
            TRACE, names=["faas.container_create", "faas.build_instance"]
        )
        reported_ms = 0.0
        for line in out.splitlines():
            parts = line.split()
            if len(parts) == 4 and parts[0] in (
                "float", "linpack", "json", "pyaes", "chameleon",
                "html", "cnn", "rnn", "bfs", "bert",
            ):
                reported_ms += float(parts[3])
        assert reported_ms > 0
        assert breakdown.total_ns / 1e6 == pytest.approx(reported_ms, rel=0.01)
        TRACE.reset()

    def test_trace_unknown(self, capsys):
        assert main(["trace", "nope"]) == 2

    def test_registry_modules_importable(self):
        import importlib

        for module_path, _ in REGISTRY.values():
            module = importlib.import_module(module_path)
            assert hasattr(module, "run_point")
            assert not hasattr(module, "main")


class TestDedupAccounting:
    def test_two_clones_share_everything(self, pod):
        from repro.analysis.dedup import measure_dedup
        from repro.experiments.common import prepare_parent
        from repro.rfork.cxlfork import CxlFork

        parent = prepare_parent(pod, "float")
        mech = CxlFork()
        ckpt, _ = mech.checkpoint(parent.instance.task)
        pod.source.kernel.exit_task(parent.instance.task)
        a = mech.restore(ckpt, pod.source)
        b = mech.restore(ckpt, pod.target)
        report = measure_dedup(pod.nodes)
        assert report.process_count == 2
        # Two sharers of (almost) the same frames: factor ≈ 2.
        assert report.dedup_factor == pytest.approx(2.0, abs=0.1)
        assert report.dedup_saved_bytes > 0
        assert "deduplication saved" in report.format()

    def test_no_cxl_means_factor_one(self, pod):
        from repro.analysis.dedup import measure_dedup
        from repro.faas.workload import FunctionWorkload

        workload = FunctionWorkload("float")
        workload.build_instance(pod.source)
        report = measure_dedup(pod.nodes)
        assert report.dedup_factor == 1.0
        assert report.cxl_shared_bytes == 0
