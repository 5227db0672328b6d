"""Tests of the benchmark itself: ledger binding, span folding, the bypass
assumptions of each workload, and the bare-directory failure.

    python3 -m pytest -q hostbench
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run as bench

bench.import_program()

from ledger import ENTRIES, LAYERS, Fold, Ledger, _resolve  # noqa: E402


def _bindings():
    """Every place an entry point's current object is reachable from."""
    found = {}
    resolved = [_resolve(entry.target) for entry in ENTRIES]  # imports first
    for entry, (owner, name, raw) in zip(ENTRIES, resolved):
        if owner is not None:
            found[entry.target] = [raw]
            continue
        found[entry.target] = [
            (module.__name__, attr)
            for module in list(sys.modules.values())
            for attr, value in list(getattr(module, "__dict__", {}).items())
            if value is raw
        ]
    return found


def test_install_binds_every_entry_and_uninstall_restores_it():
    import repro.check.invariants as invariants
    import repro.faults as faults
    import repro.faults.audit as audit
    from repro.os.kernel import Kernel

    original_access = Kernel.__dict__["access_range"]
    original_audit_pod = audit.audit_pod
    before = _bindings()
    ledger = Ledger()
    ledger.install()
    try:
        assert Kernel.__dict__["access_range"] is not original_access
        # A bare function is rebound in every module that imported it.
        assert audit.audit_pod is not original_audit_pod
        assert faults.audit_pod is audit.audit_pod
        assert invariants.audit_pod is audit.audit_pod
    finally:
        ledger.uninstall()
    assert Kernel.__dict__["access_range"] is original_access
    assert audit.audit_pod is original_audit_pod
    assert _bindings() == before


def test_uninstall_also_restores_copies_made_while_installed():
    import repro.serial.codec as codec

    original = codec.encode
    ledger = Ledger()
    ledger.install()
    try:
        holder = type(sys)("hostbench_late_import")
        holder.encode = codec.encode  # an import that ran mid-trace
        sys.modules[holder.__name__] = holder
    finally:
        ledger.uninstall()
        sys.modules.pop("hostbench_late_import", None)
    assert holder.encode is original


def test_spans_record_nesting_and_calls():
    from repro.serial.codec import Codec

    ledger = Ledger()
    ledger.install()
    try:
        Codec().decode(Codec().encode([1, 2, 3]))
    finally:
        ledger.uninstall()
    fold = ledger.fold(wall_ns=10**9)
    codec = LAYERS.index("serial.codec")
    # Codec.encode -> encode and Codec.decode -> decode: four spans, the
    # module-level ones nested inside the method ones.
    assert int(fold.calls[codec]) == 4
    spans = ledger.spans()
    assert (spans["parent"] == -1).sum() == 2
    assert fold.amounts["codec_bytes"] == 2 * len(Codec().encode([1, 2, 3]))
    assert fold.reconcile_problems() == []


def test_fold_self_time_and_reconciliation():
    layer_of = np.array([LAYERS.index("faas.invocation"), LAYERS.index("os.kernel")])
    spans = {
        # invocation [0, 100) with kernel children [10, 30) and [40, 90)
        "entry": np.array([0, 1, 1]),
        "start_ns": np.array([0, 10, 40]),
        "end_ns": np.array([100, 30, 90]),
        "parent": np.array([-1, 0, 0]),
    }
    fold = Fold.of(spans, layer_of, wall_ns=120, amounts={})
    assert int(fold.self_ns[LAYERS.index("faas.invocation")]) == 30
    assert int(fold.self_ns[LAYERS.index("os.kernel")]) == 70
    assert fold.unattributed_ns == 20
    assert fold.kernel_entries_from_invocation == 2
    assert fold.reconcile_problems() == []
    # A wall shorter than the spans it contains cannot reconcile.
    assert Fold.of(spans, layer_of, wall_ns=90, amounts={}).reconcile_problems()


@pytest.fixture(scope="module")
def traced_runs():
    """One reference and one traced episode of every workload."""
    runs = {}
    for name in ("serve", "coldfork", "seal"):
        run = bench.Run(name, 42, seconds=0.0, traced=True)
        run.execute()
        runs[name] = run
    return runs


def _calls(run):
    return dict(zip(LAYERS, run.folds[0].calls.tolist()))


@pytest.mark.parametrize("name", ["serve", "coldfork", "seal"])
def test_traced_run_passes_every_gate(traced_runs, name):
    run = traced_runs[name]
    assert run.problems == []
    assert len(set(run.digests)) == 1  # traced == untraced


def test_bypass_assumptions(traced_runs):
    assert _calls(traced_runs["serve"])["dedup"] == 0
    assert _calls(traced_runs["coldfork"])["dedup"] == 0
    assert _calls(traced_runs["coldfork"])["sim.events"] == 0
    assert _calls(traced_runs["seal"])["sim.events"] == 0
    metrics = {n: r.per_layer() for n, r in traced_runs.items()}
    assert metrics["coldfork"]["rfork.restoreplan.hit_ratio"][0] == 0
    assert metrics["serve"]["rfork.restoreplan.hit_ratio"][0] > 0


def test_every_entry_is_called_on_its_home_workloads(traced_runs):
    for name, run in traced_runs.items():
        calls = run.folds[0].entry_calls
        for entry, n in zip(ENTRIES, calls.tolist()):
            if name in entry.homes:
                assert n > 0, f"{entry.target} idle on {name}"
    for entry in ENTRIES:
        assert entry.homes, f"{entry.target} has no home workload"


def test_shares_follow_the_stressed_layers(traced_runs):
    def share(run, layers):
        metrics = run.per_layer()
        return sum(metrics[f"{layer}.share"][0] for layer in layers)

    warm = ("os.kernel", "faas.invocation", "os.mm")
    pool = ("cxl.allocator", "faults.audit", "dedup")
    assert share(traced_runs["serve"], warm) > share(traced_runs["serve"], pool)
    assert share(traced_runs["seal"], pool) > share(traced_runs["seal"], warm)


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, the command must fail
    without printing a result."""
    here = os.path.dirname(os.path.abspath(__file__))
    shutil.copytree(here, tmp_path / "hostbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(os.path.dirname(here), "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "hostbench/run.py", "--workload", "coldfork",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
