"""Figure 10: CXLporter under Azure-shaped load.

Paper (§7.2): with ample memory CXLfork cuts P99 ~70% vs CRIU-CXL and
Mitosis ~51%, P50 stays comparable, and CXLfork-MoW lags the dynamic
CXLfork; as node memory shrinks to 25%, CXLfork's low local-memory
consumption lets it keep far more instances alive — P99 improves by a
large factor over both CRIU and Mitosis, and dynamic CXLfork converges to
CXLfork-MoW because the HighMem threshold blocks promotions.
"""

import pytest

from repro.experiments import fig10_porter, run


@pytest.fixture(scope="module")
def ample_rows():
    config = fig10_porter.Config(
        total_rps=150, duration_s=15, memory_fractions=(1.0,)
    )
    return run("fig10", config)


@pytest.fixture(scope="module")
def constrained_rows():
    config = fig10_porter.Config(
        total_rps=100, duration_s=10, memory_fractions=(0.25,)
    )
    return run("fig10", config)


def test_fig10_ample_memory(once, ample_rows, capsys):
    summary = once(fig10_porter.headline, ample_rows)
    with capsys.disabled():
        print("\n=== Figure 10a/b: ample memory ===")
        print(fig10_porter.format_rows(ample_rows))

    # P99: CXLfork clearly under CRIU (paper -70%) and at or under
    # CXLfork-MoW (dynamic tiering can only help).
    assert summary["mem100_cxlfork_p99_vs_criu"] <= 0.75
    assert summary["mem100_mitosis-cxl_p99_vs_criu"] <= 0.80
    assert (
        summary["mem100_cxlfork_p99_vs_criu"]
        <= summary["mem100_cxlfork-mow_p99_vs_criu"] + 1e-9
    )
    # P50 is comparable across CRIU / Mitosis / CXLfork (warm-dominated).
    for arm in ("mitosis-cxl", "cxlfork"):
        assert 0.85 <= summary[f"mem100_{arm}_p50_vs_criu"] <= 1.2


def test_fig10_memory_constrained(once, ample_rows, constrained_rows, capsys):
    summary = once(fig10_porter.headline, constrained_rows)
    ample = fig10_porter.headline(ample_rows)
    with capsys.disabled():
        print("\n=== Figure 10c: 25% memory ===")
        print(fig10_porter.format_rows(constrained_rows))

    # CXLfork's frugal children win big under pressure (paper: ~16x).
    assert summary["mem25_cxlfork_p99_vs_criu"] <= 0.5
    # The gap vs CRIU widens as memory shrinks.
    assert (
        summary["mem25_cxlfork_p99_vs_criu"]
        < ample["mem100_cxlfork_p99_vs_criu"]
    )
    # Under pressure, dynamic CXLfork == CXLfork-MoW (HighMem blocks
    # promotions; paper: "the same latency").
    ratio = (
        summary["mem25_cxlfork_p99_vs_criu"]
        / summary["mem25_cxlfork-mow_p99_vs_criu"]
    )
    assert 0.8 <= ratio <= 1.2
    # CXLfork also beats Mitosis under pressure.
    assert (
        summary["mem25_cxlfork_p99_vs_criu"]
        < summary["mem25_mitosis-cxl_p99_vs_criu"]
    )
