"""Table 1: the evaluation functions and their footprints."""

from repro.experiments import run, table1


def test_table1(once, capsys):
    rows = once(run, "table1")
    with capsys.disabled():
        print("\n=== Table 1: Serverless functions used in the evaluation ===")
        print(table1.format_rows(rows))
    assert len(rows) == 10
    footprints = {name: mb for name, _, mb in rows}
    assert footprints["bert"] == 630
    assert footprints["float"] == 24
    assert max(footprints.values()) == footprints["bert"]
