"""Figure 1: footprint breakdown (Init / Read-only / Read-Write).

Paper: averages 72.2% / 23% / 4.8% across the ten functions; Init and
Read-only dominate every function.
"""

from repro.experiments import fig1_footprint, run


def test_fig1_footprint_breakdown(once, capsys):
    rows = once(run, "fig1")
    with capsys.disabled():
        print("\n=== Figure 1: memory footprint breakdown ===")
        print(fig1_footprint.format_rows(rows))
    avg = fig1_footprint.averages(rows)
    # Shape: Init dominates, then Read-only, Read/Write is small.
    assert avg["init"] > avg["read_only"] > avg["read_write"]
    # Rough magnitudes (paper: 72.2 / 23 / 4.8).
    assert 0.60 <= avg["init"] <= 0.80
    assert 0.15 <= avg["read_only"] <= 0.35
    assert 0.02 <= avg["read_write"] <= 0.08
    # Per function: init + read-only dominate (>= 85% everywhere).
    for row in rows:
        assert row.init_frac + row.read_only_frac >= 0.85
