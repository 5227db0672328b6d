"""Figure 7: remote-fork cold-start performance and memory (the headline).

Paper (§7.1): CXLfork restores in 1.2-6.1 ms vs CRIU's 16-423 ms and
Mitosis' <=15 ms; end-to-end CXLfork is ~1.14x a local fork, ~2.26x faster
than CRIU-CXL, ~1.40x faster than Mitosis-CXL, and ~11x faster than a cold
start; it consumes ~13% of a cold start's local memory.
"""

from repro.experiments import fig7_performance, run


def test_fig7_cold_start_performance(once, capsys):
    rows = once(run, "fig7")
    summary = fig7_performance.headline(rows)
    with capsys.disabled():
        print("\n=== Figure 7: cold-start execution and local memory ===")
        print(fig7_performance.format_rows(rows))

    # -- Fig. 7a latency shapes -------------------------------------------------
    # Cold start is an order of magnitude slower than CXLfork (paper ~11x).
    assert 8 <= summary["cold_vs_cxlfork"] <= 20
    # CXLfork is close to a local fork (paper ~1.14x).
    assert 0.95 <= summary["cxlfork_vs_localfork"] <= 1.35
    # CXLfork beats CRIU-CXL by ~2-4x (paper 2.26x) and Mitosis by
    # ~1.3-1.9x (paper 1.40x).
    assert 2.0 <= summary["criu_vs_cxlfork"] <= 4.0
    assert 1.25 <= summary["mitosis_vs_cxlfork"] <= 1.9
    # Ordering: CRIU slowest, then Mitosis, then CXLfork.
    assert summary["criu_vs_cxlfork"] > summary["mitosis_vs_cxlfork"] > 1.0

    # -- restore latency ranges ------------------------------------------------------
    assert summary["cxlfork_restore_max_ms"] <= 8.0  # paper max: 6.1 ms
    assert summary["criu_restore_max_ms"] >= 200.0  # paper max: 423 ms
    assert summary["criu_restore_min_ms"] >= 8.0  # paper min: 16 ms
    assert summary["mitosis_restore_max_ms"] <= 25.0  # paper: up to 15 ms
    # Restore is where CXLfork wins: two orders of magnitude under CRIU.
    assert summary["criu_restore_max_ms"] / summary["cxlfork_restore_max_ms"] > 50

    # -- Fig. 7b memory shapes -----------------------------------------------------------
    # CRIU's child consumes cold-start-like memory (paper ~1x).
    assert 0.85 <= summary["mem_criu_vs_cold"] <= 1.15
    # Mitosis saves roughly half vs CRIU (paper ~0.4x).
    assert 0.2 <= summary["mem_mitosis_vs_criu"] <= 0.55
    # CXLfork is far below both (paper: 13% of CRIU / cold).
    assert summary["mem_cxlfork_vs_criu"] <= 0.2
    assert summary["mem_cxlfork_vs_mitosis"] <= 0.5


def test_fig7_page_fault_share_for_mitosis(once, capsys):
    """§7.1: Mitosis' lazy copies cost 42%/54% of BFS/Bert execution."""
    config = fig7_performance.Config(
        functions=("bfs", "bert"), mechanisms=("mitosis-cxl",)
    )
    rows = once(run, "fig7", config)
    for row in rows:
        share = row.fault_ms / row.total_ms
        with capsys.disabled():
            print(f"\nmitosis fault share for {row.function}: {share:.2f}")
        assert 0.30 <= share <= 0.65
