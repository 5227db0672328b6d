"""Checkpoint performance (§7.1).

Paper: Mitosis and CXLfork checkpoint roughly an order of magnitude faster
than CRIU (no data serialization); Mitosis is ~1.5x faster than CXLfork
(local-DRAM shadow vs non-temporal stores into CXL) — but its checkpoint
is coupled to the parent node, while CXLfork's is shareable pod-wide.
"""

from repro.experiments import checkpoint_perf, run


def test_checkpoint_performance(once, capsys):
    rows = once(run, "checkpoint")
    summary = checkpoint_perf.headline(rows)
    with capsys.disabled():
        print("\n=== Checkpoint performance (§7.1) ===")
        print(checkpoint_perf.format_rows(rows))

    # CRIU is many times slower than both (paper: ~10x).
    assert summary["criu_vs_cxlfork"] >= 4.0
    assert summary["criu_vs_mitosis"] >= 5.0
    # Mitosis checkpoints ~1.5x faster than CXLfork (paper: 1.5x).
    assert 1.2 <= summary["cxlfork_vs_mitosis"] <= 1.9

    # Placement: CXLfork's checkpoint lives on the device; Mitosis' shadow
    # is parent-local; CRIU's images are files on the CXL FS.
    by_mech = {}
    for row in rows:
        by_mech.setdefault(row.mechanism, []).append(row)
    assert all(r.cxl_mb > 0 for r in by_mech["cxlfork"])
    assert all(r.local_shadow_mb > 0 for r in by_mech["mitosis-cxl"])
    assert all(r.cxl_mb == 0 for r in by_mech["mitosis-cxl"])
    # Near-zero serialization for CXLfork; full serialization for CRIU.
    assert all(r.serialized_mb < 0.1 for r in by_mech["cxlfork"])
    assert all(r.serialized_mb > 10 for r in by_mech["criu-cxl"])
