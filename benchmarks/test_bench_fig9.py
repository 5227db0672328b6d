"""Figure 9: sensitivity of CXLfork to the CXL device latency.

Paper (§7.1): lowering the round trip from 400 ns to 100 ns improves warm
execution only for BFS and Bert (the rest fit in the caches) — and even at
200 ns they remain penalized; cold execution improves steadily and, at low
latency, CXLfork matches or beats a local fork because it attaches OS
state and file mappings instead of rebuilding them.
"""

from repro.experiments import fig9_sensitivity, run


def test_fig9_latency_sensitivity(once, capsys):
    rows = once(run, "fig9")
    summary = fig9_sensitivity.headline(rows)
    with capsys.disabled():
        print("\n=== Figure 9: CXL latency sweep ===")
        print(fig9_sensitivity.format_rows(rows))

    # Warm sensitivity: big for BFS/Bert, negligible for the rest.
    for fn in ("bfs", "bert"):
        assert summary[f"{fn}_warm_gain"] > 0.10, fn
    for fn in ("float", "json", "cnn"):
        assert summary[f"{fn}_warm_gain"] < 0.10, fn

    by_fn = {}
    for row in rows:
        by_fn.setdefault(row.function, []).append(row)

    # Even at 200 ns (2x local), BFS/Bert warm time is still penalized.
    for fn in ("bfs", "bert"):
        at_200 = [r for r in by_fn[fn] if r.cxl_latency_ns == 200.0][0]
        assert at_200.warm_relative > 1.05, fn

    # Cold execution improves monotonically as latency drops...
    for fn, points in by_fn.items():
        ordered = sorted(points, key=lambda r: r.cxl_latency_ns)
        colds = [r.cold_relative for r in ordered]
        assert colds == sorted(colds), fn
    # ... and at 100 ns CXLfork beats the local fork for big functions
    # (attached page tables + checkpointed file mappings, §7.1).
    for fn in ("cnn", "bfs", "bert"):
        assert summary[f"{fn}_cold_at_low_latency"] < 1.0, fn
