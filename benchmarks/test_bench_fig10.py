"""Figure 10 at paper scale: CXLporter under Azure-shaped load.

The registered shapes (``repro run fig10``) replay a reduced trace at 100%
memory.  These two campaigns are the paper-scale ones: 150 RPS for 15 s
with ample memory, and 100 RPS for 10 s at 25% memory.  Each must pass
every claim in :func:`repro.experiments.fig10_porter.gates`.  They stay two
campaigns: one config with both memory levels at 150 RPS breaks the 25%
level's CXLfork vs CXLfork-MoW bound.
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


def test_fig10_ample_memory(ample_rows):
    assert fig10_porter.gates(ample_rows, quick=False) == []


def test_fig10_memory_constrained(ample_rows, constrained_rows):
    assert fig10_porter.gates(constrained_rows, quick=False) == []
    # The gap vs CRIU widens as memory shrinks (paper: ~70% at ample
    # memory, ~16x at 25%).
    ample = fig10_porter.headline(ample_rows)
    constrained = fig10_porter.headline(constrained_rows)
    assert (
        constrained["mem25_cxlfork_p99_vs_criu"]
        < ample["mem100_cxlfork_p99_vs_criu"]
    )
