"""cluster_scale experiment: determinism, summary shape, audit hook."""

import dataclasses

from repro import experiments
from repro.bench import results_digest
from repro.check.cluster import audit_federation
from repro.cluster import RouterConfig, build_federation
from repro.experiments import cluster_scale
from repro.porter.autoscaler import PorterConfig


def test_quick_run_is_deterministic():
    """Two quick runs from the same seed must digest identically — this
    is the digest CI pins against BENCH_cluster-scale.json."""
    digests = [
        results_digest(
            experiments.run("cluster-scale", cluster_scale.Config.quick())
        )
        for _ in range(2)
    ]
    assert digests[0] == digests[1]


def test_quick_summary_shape():
    result = experiments.run("cluster-scale", cluster_scale.Config.quick())
    rows, summary = result["rows"], result["summary"]
    assert len(rows) == 4  # 2 RPS points x 2 arms
    assert {r.arm for r in rows} == {"single-pod", "federated"}
    assert summary == cluster_scale.headline(rows)
    assert isinstance(summary["federated_wins_cold_p99_at_peak"], bool)
    assert summary["peak_rps"] == max(cluster_scale.Config.quick().rps_list)
    # Formatting never touches the measurements: header + one line per
    # row, a blank line, then one line per headline number.
    assert cluster_scale.format_rows(result).count("\n") == (
        len(rows) + 1 + len(summary)
    )


def test_seed_changes_the_digest():
    quick = cluster_scale.Config.quick()
    base = experiments.run("cluster-scale", dataclasses.replace(quick, seed=1))
    other = experiments.run("cluster-scale", dataclasses.replace(quick, seed=2))
    assert results_digest(base) != results_digest(other)


def test_federation_audit_clean_after_replicated_run():
    """After prewarm + push replication, every stored checkpoint must be
    backed by the pod that stores it — the cross-pod ownership invariant."""
    router = build_federation(
        2,
        porter_config=PorterConfig(),
        router_config=RouterConfig(replication="push"),
    )
    router.register_function("float")
    router.prewarm("float", home="pod0")
    while router.queue.peek_time() is not None:
        router.queue.step()
    report = audit_federation(router)
    assert report.clean
    assert report.pods_audited == 2
    assert report.checkpoints_checked == 2  # original + pushed replica
