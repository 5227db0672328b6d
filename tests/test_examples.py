"""The examples must keep running (they are the public face of the API)."""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"

#: Examples fast enough for the test suite (the others run in benchmarks
#: territory: full sweeps over many pods).
FAST_EXAMPLES = [
    "quickstart.py",
    "failure_recovery.py",
]


def run_example(name: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


class TestExamples:
    @pytest.mark.parametrize("name", FAST_EXAMPLES)
    def test_runs_clean(self, name):
        result = run_example(name)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip()

    def test_quickstart_tells_the_story(self):
        result = run_example("quickstart.py")
        out = result.stdout
        assert "checkpoint" in out
        assert "restore" in out
        assert "deduplicated" in out

    def test_failure_recovery_contrast(self):
        out = run_example("failure_recovery.py").stdout
        assert "service continues" in out
        assert "FAILED" in out  # the Mitosis side

    def test_comparison_accepts_function_argument(self):
        result = run_example("remote_fork_comparison.py", "float")
        assert result.returncode == 0, result.stderr
        assert "cxlfork" in result.stdout
        assert "localfork" in result.stdout

    def test_all_examples_exist_and_have_docstrings(self):
        files = sorted(EXAMPLES.glob("*.py"))
        assert len(files) >= 6
        for path in files:
            head = path.read_text().split('"""')
            assert len(head) >= 3, f"{path.name} lacks a module docstring"
            assert "Run:" in head[1], f"{path.name} docstring lacks a Run: line"
