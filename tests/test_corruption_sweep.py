"""The corruption sweep: wrong-bytes accounting, survival, determinism."""

import pytest

from repro.bench import results_digest
from repro.experiments import corruption_sweep
from repro.parallel import run_points
from repro.ras import RAS


@pytest.fixture(autouse=True)
def _ras_reset():
    RAS.reset()
    yield
    RAS.reset()


def _point(**overrides):
    from repro.parallel import SweepPoint

    params = dict(
        mechanism="cxlfork",
        rate=0.05,
        policy="ladder",
        checksums=True,
        function="float",
        seed=0,
        trials=2,
    )
    params.update(overrides)
    return SweepPoint.make("corruption-sweep", **params)


class TestGrid:
    def test_quick_grid_shape(self):
        points = corruption_sweep.points(corruption_sweep.Config.quick())
        # 2 mechanisms x 1 rate x (2 policies + 1 checksums-off control).
        assert len(points) == 6
        off = [p for p in points if not p.param("checksums")]
        assert len(off) == 2
        assert all(p.param("policy") == "none" for p in off)

    def test_full_grid_shape(self):
        points = corruption_sweep.points(corruption_sweep.Config())
        # 2 mechanisms x 3 rates x (4 policies + 1 control).
        assert len(points) == 30


class TestCells:
    def test_checksums_on_serves_zero_wrong_bytes(self):
        row = corruption_sweep.run_point(_point())
        assert row.wrong_bytes == 0
        assert row.survived_pct == 100.0
        assert row.leaked_frames == 0
        assert row.offlined_frames > 0  # containment actually ran
        assert (row.repairs_cow + row.repairs_replica
                + row.repairs_recheckpoint) > 0

    def test_checksums_off_demonstrably_serves_corruption(self):
        row = corruption_sweep.run_point(
            _point(policy="none", checksums=False)
        )
        assert row.wrong_bytes > 0  # the control: detection is the difference
        assert row.survived_pct == 100.0  # it "works" — that is the problem
        assert row.leaked_frames == 0

    def test_single_rung_policy_without_its_rung_fails_closed(self):
        # criu images are not parent-addressable: pinned to cow, every
        # serve fails — but detection still prevents wrong bytes.
        row = corruption_sweep.run_point(
            _point(mechanism="criu-cxl", policy="cow", trials=1)
        )
        assert row.survived_pct == 0.0
        assert row.wrong_bytes == 0
        assert row.leaked_frames == 0


class TestDeterminism:
    def test_cells_are_reproducible(self):
        a = corruption_sweep.run_point(_point())
        b = corruption_sweep.run_point(_point())
        assert results_digest(a) == results_digest(b)

    def test_jobs_do_not_change_results(self):
        points = [_point(trials=1), _point(trials=1, mechanism="criu-cxl")]
        serial = run_points(points, corruption_sweep.run_point, jobs=1)
        sharded = run_points(points, corruption_sweep.run_point, jobs=2)
        assert results_digest(serial) == results_digest(sharded)

    def test_seed_changes_the_poison_pattern(self):
        a = corruption_sweep.run_point(_point(trials=1))
        b = corruption_sweep.run_point(_point(trials=1, seed=1))
        # Different frames get hit, so repair latencies differ; the
        # invariants (zero wrong bytes, zero leaks) hold for both.
        assert a.wrong_bytes == b.wrong_bytes == 0
        assert a.leaked_frames == b.leaked_frames == 0


class TestGates:
    def _row(self, **overrides):
        fields = dict(
            mechanism="cxlfork", rate=0.05, policy="ladder", checksums=True,
            trials=1, survived_pct=100.0, wrong_bytes=0, repairs_cow=1,
            repairs_replica=0, repairs_recheckpoint=0, p99_repair_ms=1.0,
            offlined_frames=1, leaked_frames=0, detail="",
        )
        fields.update(overrides)
        return corruption_sweep.SweepRow(**fields)

    def test_clean_sweep_passes(self):
        rows = [
            self._row(),
            self._row(policy="none", checksums=False, wrong_bytes=4096),
        ]
        assert corruption_sweep.gates(rows, quick=False) == []

    def test_control_serving_no_wrong_bytes_fails(self):
        rows = [self._row(), self._row(policy="none", checksums=False)]
        (message,) = corruption_sweep.gates(rows, quick=False)
        assert "checksums-off control" in message

    def test_wrong_bytes_with_checksums_and_leaks_fail(self):
        rows = [
            self._row(wrong_bytes=4096, leaked_frames=2),
            self._row(policy="none", checksums=False, wrong_bytes=4096),
        ]
        failures = corruption_sweep.gates(rows, quick=False)
        assert len(failures) == 2
        assert "leaked 2 frames" in failures[0]
        assert "checksums on" in failures[1]


class TestCli:
    def test_main_exits_zero_on_quick_grid(self, capsys):
        from repro.__main__ import main

        status = main(["run", "corruption-sweep", "--quick", "--jobs", "2"])
        out = capsys.readouterr().out
        assert status == 0
        assert "checksums on: 0" in out
        assert "must be 0" in out
        assert "FAIL" not in out
