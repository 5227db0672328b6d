"""Figure 6: cold-start anatomy — state init vs container creation.

Paper: state initialization is 250-500 ms and function-dependent;
container creation is ~130 ms and nearly constant across functions; a bare
configured container holds only 512 KB.
"""

from repro.experiments import fig6_coldstart, run
from repro.faas.container import GHOST_CONTAINER_BYTES


def test_fig6_coldstart_breakdown(once, capsys):
    rows = once(run, "fig6")
    with capsys.disabled():
        print("\n=== Figure 6: cold-start latency breakdown ===")
        print(fig6_coldstart.format_rows(rows))
    summary = fig6_coldstart.headline(rows)
    # Container creation ~130 ms, with little variation across functions.
    assert 100 <= summary["container_create_ms_mean"] <= 160
    assert summary["container_create_ms_spread"] <= 10
    # State init spans the paper's 250-500 ms range and varies by function.
    assert 200 <= summary["state_init_ms_min"] <= 300
    assert 400 <= summary["state_init_ms_max"] <= 600
    # A bare container holds only 512 KB.
    assert GHOST_CONTAINER_BYTES == 512 * 1024
