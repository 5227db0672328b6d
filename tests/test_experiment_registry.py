"""The experiment registry and the protocol every experiment implements."""

import dataclasses
import os
import subprocess
import sys

import pytest

from repro import experiments, runtime
from repro.__main__ import main
from repro.bench import load_baseline, results_digest
from repro.check import CHECK
from repro.ras import RAS
from repro.rfork.restoreplan import RESTORE_PLAN

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
        CHECK.zero()
        try:
            assert "NOTHING CHECKED" in CHECK.describe()
            assert "clean" not in CHECK.describe()
            CHECK.invariant_runs = 1
            assert CHECK.describe().endswith("clean")
        finally:
            CHECK.zero()

    def test_parallel_run_reports_the_serial_counts(self, capsys):
        """Counters made in worker processes come back with each point:
        the checker's, and the RAS and restore-plan ones beneath it."""
        summaries = []
        for jobs in ("1", "2"):
            assert main(["run", "fig7", "--quick", "--check", "--jobs", jobs]) == 0
            out = capsys.readouterr().out
            summaries.append(out[out.index("[check]"):])
        assert summaries[0] == summaries[1]
        check_line, counter_line = summaries[0].strip().splitlines()
        assert "check: 0 oracle" not in check_line
        assert check_line.endswith("clean")
        assert counter_line.startswith("[check] ras: ")
        assert "ras: 0 seals" not in counter_line
        assert "restore-plan: 0 builds" not in counter_line
        assert not CHECK.active() and not RAS.active()

    def test_run_check_error_leaves_checking_off(self, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("point failed")

        monkeypatch.setattr(experiments, "run", broken)
        with pytest.raises(RuntimeError):
            main(["run", "fig7", "--quick", "--check"])
        assert not CHECK.active() and not RAS.active()


def test_plan_off_reaches_workers():
    """A disabled restore-plan cache stays off in worker processes, and
    the digest still matches the committed plan-on baseline."""
    config = experiments.load("fig7").Config.quick()
    RESTORE_PLAN.reset()
    RESTORE_PLAN.disable()
    try:
        result = experiments.run("fig7", config, jobs=2)
        assert RESTORE_PLAN.builds == RESTORE_PLAN.hits == 0
    finally:
        RESTORE_PLAN.reset()
    expected = load_baseline("fig7")["quick"]["sim_results_digest"]
    assert results_digest(result) == expected


def test_point_runs_under_the_shipped_switch_states():
    """A point takes its switch settings from the snapshot it is given,
    not from whatever the running process happens to hold."""
    module = experiments.load("fig7")
    point = next(
        p for p in module.points(module.Config.quick()) if "cxlfork" in p.label()
    )
    RESTORE_PLAN.reset()
    on = runtime.snapshot()
    RESTORE_PLAN.disable()
    off = runtime.snapshot()
    try:
        _, deltas = experiments._measured(module.run_point, on, point)
        assert deltas["restore-plan"]["builds"] > 0
        RESTORE_PLAN.enable()
        _, deltas = experiments._measured(module.run_point, off, point)
        assert deltas["restore-plan"]["builds"] == 0
    finally:
        RESTORE_PLAN.reset()
