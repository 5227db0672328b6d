"""ASCII plotting helpers."""

from repro.analysis.plotting import ascii_series


class TestSeries:
    def test_contains_axes_and_legend(self):
        text = ascii_series(
            [1.0, 2.0], {"a": [0.0, 1.0], "b": [1.0, 0.0]},
            x_label="x", y_label="y",
        )
        assert "y" in text.splitlines()[0]
        assert "o a" in text and "x b" in text
        assert "└" in text

    def test_flat_series_no_crash(self):
        text = ascii_series([0.0, 1.0], {"flat": [5.0, 5.0]})
        assert "flat" in text

    def test_empty(self):
        assert ascii_series([], {}) == "(no data)"

    def test_marker_positions(self):
        text = ascii_series([0.0, 1.0], {"up": [0.0, 10.0]}, width=10, height=5)
        first_row = text.splitlines()[0]
        assert "o" in first_row  # the max lands on the top row
