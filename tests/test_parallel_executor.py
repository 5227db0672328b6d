"""repro.parallel: sweep points, seed derivation, and the fan-out executor.

The load-bearing contract: ``run_points(points, worker, jobs=N)`` returns
exactly ``[worker(p) for p in points]`` for every ``N`` — completion order,
worker identity, and submission sharding must never leak into results.
"""

from __future__ import annotations

import dataclasses
import time

import pytest

from repro.parallel import (
    SweepPoint,
    canonical_params,
    default_jobs,
    derive_seed,
    run_points,
)


# -- top-level workers (must be picklable by reference for process pools) ------


def echo_params(point: SweepPoint) -> tuple:
    return point.params


def seed_of(point: SweepPoint) -> int:
    return point.derive_seed()


def sleep_inverse(point: SweepPoint) -> int:
    """Sleep longer for earlier points, so completion order is reversed."""
    index = point.param("index")
    count = point.param("count")
    time.sleep(0.05 * (count - index))
    return index


def explode(point: SweepPoint):
    raise ValueError(f"boom on {point.param('index')}")


def explode_on_two(point: SweepPoint) -> int:
    index = point.param("index")
    if index == 2:
        raise ValueError("boom")
    return index


@dataclasses.dataclass(frozen=True)
class FakeConfig:
    rps: float = 40.0
    functions: tuple = ("float", "json")


class TestSweepPoint:
    def test_make_sorts_params(self):
        a = SweepPoint.make("exp", b=2, a=1)
        b = SweepPoint.make("exp", a=1, b=2)
        assert a == b
        assert a.params == (("a", 1), ("b", 2))

    def test_canonical_key_independent_of_kwarg_order(self):
        a = SweepPoint.make("exp", mechanism="cxlfork", function="json")
        b = SweepPoint.make("exp", function="json", mechanism="cxlfork")
        assert a.canonical_key == b.canonical_key

    def test_canonical_key_distinguishes_experiment_and_params(self):
        base = SweepPoint.make("exp", x=1)
        assert base.canonical_key != SweepPoint.make("other", x=1).canonical_key
        assert base.canonical_key != SweepPoint.make("exp", x=2).canonical_key

    def test_param_lookup_default_and_missing(self):
        point = SweepPoint.make("exp", x=1)
        assert point.param("x") == 1
        assert point.param("y", 7) == 7
        with pytest.raises(KeyError, match="has no parameter 'y'"):
            point.param("y")

    def test_config_dataclass_params_are_canonicalizable(self):
        point = SweepPoint.make("exp", config=FakeConfig(), arm="federated")
        key = point.canonical_key
        assert "federated" in key and "40.0" in key
        assert canonical_params(FakeConfig()) == {
            "rps": 40.0,
            "functions": ["float", "json"],
        }

    def test_label_mentions_scalar_params(self):
        point = SweepPoint.make("fig7", function="json", mechanism="cxlfork")
        assert "fig7" in point.label()
        assert "function=json" in point.label()


class TestDeriveSeed:
    def test_pure_function_of_base_and_key(self):
        point = SweepPoint.make("exp", x=1)
        assert point.derive_seed() == point.derive_seed()
        assert point.derive_seed() == derive_seed(point.canonical_key)

    def test_distinct_across_points_and_bases(self):
        a = SweepPoint.make("exp", x=1)
        b = SweepPoint.make("exp", x=2)
        assert a.derive_seed() != b.derive_seed()
        assert a.derive_seed(0) != a.derive_seed(1)

    def test_bits_bound_the_result(self):
        point = SweepPoint.make("exp", x=1)
        for bits in (1, 8, 63, 64):
            assert 0 <= point.derive_seed(bits=bits) < (1 << bits)

    def test_bits_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            derive_seed("key", bits=0)
        with pytest.raises(ValueError):
            derive_seed("key", bits=257)


class TestRunPoints:
    def _points(self, count: int) -> list:
        return [
            SweepPoint.make("exp", index=i, count=count) for i in range(count)
        ]

    def test_inline_path_equals_map(self):
        points = self._points(4)
        assert run_points(points, echo_params, jobs=1) == [
            echo_params(p) for p in points
        ]

    def test_empty_points(self):
        assert run_points([], echo_params, jobs=4) == []

    def test_single_point_runs_inline(self):
        points = self._points(1)
        assert run_points(points, echo_params, jobs=8) == [points[0].params]

    def test_process_pool_merges_in_point_order(self):
        # sleep_inverse finishes the LAST point first; the merged result
        # must still be in submission (canonical) order.
        points = self._points(4)
        assert run_points(points, sleep_inverse, jobs=4) == [0, 1, 2, 3]

    def test_parallel_equals_serial(self):
        points = self._points(5)
        serial = run_points(points, seed_of, jobs=1)
        parallel = run_points(points, seed_of, jobs=3)
        assert parallel == serial

    def test_jobs_none_uses_default(self):
        points = self._points(2)
        assert run_points(points, seed_of, jobs=None) == [
            seed_of(p) for p in points
        ]
        assert default_jobs() >= 1

    def test_worker_exception_reraises_inline(self):
        with pytest.raises(ValueError, match="boom on 0"):
            run_points(self._points(2), explode, jobs=1)

    def test_worker_exception_reraises_from_pool_with_point_note(self):
        points = self._points(4)
        with pytest.raises(ValueError, match="boom") as excinfo:
            run_points(points, explode_on_two, jobs=2)
        notes = getattr(excinfo.value, "__notes__", [])
        assert any("index=2" in note for note in notes)
