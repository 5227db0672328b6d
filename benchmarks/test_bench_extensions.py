"""Extension experiments beyond the paper's evaluation.

These implement the paper's own discussion-section agenda (§8) plus the
§3.1/§5 design arguments as measurable artifacts:

* node-failure survival (§3.1: Mitosis' parent node is a point of failure;
  CXLfork's CXL-resident checkpoints are not);
* CXL bandwidth contention at many nodes + bandwidth-aware tiering (§8);
* keep-alive window sizing under cheap cold starts (§5 future work);
* FaaS workflows passing data by reference over CXL (§8).
"""

from repro.experiments import (
    density,
    failure_sweep,
    keepalive_study,
    run,
    scalability,
    write_heavy,
)


def test_extension_node_failure(once, capsys):
    rows = once(run, "failure-sweep", failure_sweep.Config.quick())
    with capsys.disabled():
        print("\n=== Extension: crashing nodes across checkpoint/restore ===")
        print(failure_sweep.format_rows(rows))
    # The §3.1 scenario: the source node dies after the checkpoint.
    by_mech = {row.mechanism: row for row in rows if row.stage == "between"}
    # CXLfork and CRIU-CXL checkpoints are decoupled: clones still spawn.
    assert by_mech["cxlfork"].survived
    assert by_mech["criu-cxl"].survived
    # Mitosis' checkpoint died with its parent node (§3.1).
    assert not by_mech["mitosis-cxl"].survived
    # And the surviving recoveries keep their usual cost ordering.
    assert by_mech["cxlfork"].recovery_ms < by_mech["criu-cxl"].recovery_ms


def test_extension_bandwidth_scalability(once, capsys):
    rows = once(run, "scalability", scalability.Config(node_counts=(2, 8, 16)))
    summary = scalability.headline(rows)
    with capsys.disabled():
        print("\n=== Extension: many-node scaling under shared bandwidth ===")
        print(scalability.format_rows(rows))
    # MoW collapses once the fabric saturates (§8's anticipated bottleneck).
    assert summary["mow_slowdown"] > 2.0
    # Bandwidth-aware tiering keeps clones near their 2-node speed.
    assert summary["bandwidth-aware_slowdown"] < 1.3
    # ... by keeping the fabric cool.
    assert (
        summary["bandwidth-aware_peak_utilization"]
        < summary["mow_peak_utilization"]
    )
    # The price is deduplication: clones hold more local memory.
    mow = [r for r in rows if r.policy == "mow"][0]
    aware = [r for r in rows if r.policy == "bandwidth-aware"][0]
    assert aware.local_mb_per_clone > 2 * mow.local_mb_per_clone


def test_extension_keepalive_windows(once, capsys):
    rows = once(run, "keepalive")
    summary = keepalive_study.headline(rows)
    with capsys.disabled():
        print("\n=== Extension: keep-alive window sweep (CXLfork restores) ===")
        print(keepalive_study.format_rows(rows))
    # Short windows restore more often but hold much less memory...
    assert summary["restore_ratio_short_vs_long"] > 1.5
    assert summary["memory_ratio_short_vs_long"] < 0.7
    # ... and, because CXLfork restores are milliseconds, the latency
    # penalty is marginal (the §5 rationale for shrinking windows).
    assert summary["p99_ratio_short_vs_long"] < 1.15


def test_extension_function_density(once, capsys):
    """§2.2: deduplication lets far more instances share a memory budget."""
    rows = once(density.run_budget, "bert")
    summary = density.summarize_budget(rows)
    with capsys.disabled():
        print("\n=== Extension: instances per 3 GiB of node DRAM (BERT) ===")
        print(density.format_budget(rows))
        for key, value in summary.items():
            print(f"{key:>30}: {value:.1f}")
    by_mech = {row.mechanism: row for row in rows}
    # Density ordering mirrors local-memory consumption.
    assert (
        by_mech["cxlfork"].instances
        > by_mech["mitosis-cxl"].instances
        > by_mech["criu-cxl"].instances
    )
    # CXLfork fits several times more instances (paper: ~2x throughput at
    # 25% memory comes from exactly this headroom).
    assert summary["density_cxlfork_vs_criu"] >= 4.0
    assert summary["density_cxlfork_vs_mitosis"] >= 2.0
    # The shared state really is shared: dedup saved gigabytes.
    assert by_mech["cxlfork"].dedup_saved_mb > 1000


def test_extension_write_heavy(once, capsys):
    """§8's discussion, measured: cloning stays instant as the write share
    grows, but the memory savings are blunted."""
    rows = once(run, "write-heavy")
    summary = write_heavy.headline(rows)
    with capsys.disabled():
        print("\n=== Extension: write-heavy workloads (§8) ===")
        print(write_heavy.format_rows(rows))
    # Restore latency is independent of the write share (instant cloning).
    assert summary["restore_spread"] < 1.2
    # Savings blunt monotonically: local share tracks the write share.
    assert summary["savings_monotonically_blunted"]
    assert summary["local_frac_read_mostly"] < 0.15
    assert summary["local_frac_write_heavy"] > 0.45


def test_extension_workflow_pass_by_reference(once, capsys):
    from repro.experiments.common import make_pod
    from repro.faas.workflows import (
        TransferMode,
        Workflow,
        WorkflowEngine,
        WorkflowStage,
    )

    workflow = Workflow(
        "inference-pipeline",
        (
            WorkflowStage("json", payload_out_mb=64),
            WorkflowStage("cnn", payload_out_mb=16),
            WorkflowStage("html", payload_out_mb=0.1, consume_frac=0.5),
        ),
    )

    def run_both():
        pod = make_pod()
        engine = WorkflowEngine(pod)
        engine.prepare(workflow)
        copy = engine.run(workflow, TransferMode.COPY)
        ref = engine.run(workflow, TransferMode.REFERENCE)
        return copy, ref

    copy, ref = once(run_both)
    with capsys.disabled():
        print(f"\n=== Extension: workflow transfers ===")
        print(f"copy:      total {copy.total_ms:7.1f} ms, "
              f"transfer {copy.transfer_ms:6.2f} ms")
        print(f"reference: total {ref.total_ms:7.1f} ms, "
              f"transfer {ref.transfer_ms:6.2f} ms")
    # Pass-by-reference slashes the transfer component (§8's motivation).
    assert ref.transfer_ms < copy.transfer_ms / 3
    assert ref.total_ms < copy.total_ms
