"""The experiment registry and the protocol every experiment implements."""

import dataclasses
import os
import subprocess
import sys

import pytest

from repro import experiments
from repro.__main__ import main
from repro.check import CHECK, CheckStats

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


@pytest.mark.parametrize("name", list(experiments.REGISTRY))
def test_experiment_conforms_to_protocol(name, capsys):
    module = experiments.load(name)
    for attr in ("points", "run_point", "summarize", "gates", "format_rows"):
        assert callable(getattr(module, attr)), f"{name} lacks {attr}()"
    assert dataclasses.is_dataclass(module.Config)
    quick = module.Config.quick()
    assert isinstance(quick, module.Config)
    assert module.points(quick), f"{name} has an empty quick grid"

    result = experiments.run(name, quick)
    assert module.gates(result) == []
    assert module.format_rows(result)

    assert main(["run", name, "--quick", "--jobs", "2"]) == 0
    assert "FAIL" not in capsys.readouterr().out


@pytest.mark.parametrize(
    "module_path", ["repro.bench", "repro.experiments.cluster_scale"]
)
def test_import_loads_no_other_experiment(module_path):
    """The registry is lazy: one import pulls in no other experiment."""
    code = (
        f"import sys, {module_path}\n"
        "from repro.experiments import REGISTRY\n"
        "paths = {path for path, _ in REGISTRY.values()}\n"
        "print(sorted(paths & set(sys.modules)))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    expected = [module_path] if module_path.startswith("repro.experiments.") else []
    assert out == repr(expected)


def test_seed_only_where_config_has_one(capsys):
    assert main(["run", "table1", "--seed", "3"]) == 2
    assert "no seed field" in capsys.readouterr().err


class TestCheckCounters:
    def test_summary_never_clean_without_checks(self):
        stats = CheckStats()
        runtime = type(CHECK)()
        runtime.stats = stats
        assert "NOTHING CHECKED" in runtime.summary()
        assert "clean" not in runtime.summary()
        stats.invariant_runs = 1
        assert runtime.summary().endswith("clean")

    def test_parallel_run_reports_the_serial_counts(self, capsys):
        """Counters made in worker processes come back with each point."""
        summaries = []
        for jobs in ("1", "2"):
            assert main(["run", "fig7", "--quick", "--check", "--jobs", jobs]) == 0
            out = capsys.readouterr().out
            summaries.append(out[out.index("[check]"):])
        assert summaries[0] == summaries[1]
        assert "0 oracle" not in summaries[0]
        assert summaries[0].rstrip().endswith("clean")
