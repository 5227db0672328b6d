"""Analysis helpers and the CLI."""

import pytest

from repro.__main__ import main
from repro.experiments import REGISTRY
from repro.experiments.common import geometric_mean


class TestStats:
    def test_geometric_mean(self):
        assert geometric_mean([1, 4]) == pytest.approx(2.0)
        assert geometric_mean([2, 2, 2]) == pytest.approx(2.0)

    def test_geometric_mean_skips_nonpositive(self):
        assert geometric_mean([0, -5, 4]) == pytest.approx(4.0)
        assert geometric_mean([]) == 0.0


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
            "run", "fig6",
            "--trace", str(trace_path),
            "--jsonl", str(jsonl_path),
        ]) == 0
        assert not TRACE.active()  # off again afterwards
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

    def test_trace_unknown(self, capsys, tmp_path):
        assert main(["run", "nope", "--trace", str(tmp_path / "t.json")]) == 2

    def test_trace_is_the_same_at_any_jobs(self, capsys, tmp_path):
        """Each point's spans and metrics come back from its worker: the
        trace files and the phase table match the serial run's."""
        from repro.telemetry import TRACE

        runs = []
        try:
            for jobs in ("1", "2"):
                trace, jsonl = tmp_path / f"t{jobs}.json", tmp_path / f"t{jobs}.jsonl"
                assert main([
                    "run", "fig7", "--quick", "--jobs", jobs,
                    "--trace", str(trace), "--jsonl", str(jsonl),
                ]) == 0
                out = capsys.readouterr().out
                runs.append((
                    trace.read_bytes(), jsonl.read_bytes(),
                    out[out.index("Phase breakdown"):],
                ))
        finally:
            TRACE.reset()
        assert runs[0] == runs[1]
        assert "cxlfork.restore" in runs[0][2]

    def test_registry_modules_importable(self):
        import importlib

        for module_path, _ in REGISTRY.values():
            module = importlib.import_module(module_path)
            assert hasattr(module, "run_point")
            assert not hasattr(module, "main")
