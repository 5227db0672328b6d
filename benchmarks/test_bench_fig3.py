"""Figure 3c: the motivation — CRIU/Mitosis forking BERT vs local fork.

Paper: CRIU's restore alone is ~2.7x the local fork + execution time with
~42x the local memory; Mitosis is ~2.6x end-to-end with ~24x memory.
"""

from repro.experiments import fig3_motivation, run


def test_fig3_bert_motivation(once, capsys):
    result = once(run, "fig3")
    with capsys.disabled():
        print("\n=== Figure 3c: existing remote forks on BERT ===")
        print(fig3_motivation.format_rows(result))
    # Shape: just CRIU's restore dwarfs the whole local fork + execution.
    assert result.criu_restore_vs_localfork_total > 1.5
    # Shape: Mitosis is substantially slower end-to-end than a local fork.
    assert result.mitosis_total_vs_localfork > 1.4
    # Shape: CRIU is the slowest of the three end-to-end.
    assert result.criu_total_ms > result.mitosis_total_ms > result.localfork_total_ms
    # Memory: CRIU's child shares nothing; Mitosis copies what it touches.
    assert result.criu_mem_vs_localfork > 10
    assert result.mitosis_mem_vs_localfork > 4
    assert result.criu_mb > result.mitosis_mb > result.localfork_mb
