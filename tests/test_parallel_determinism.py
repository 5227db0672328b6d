"""Worker determinism: the parallel executor's bit-identical-merge contract.

Two layers of guarantee:

* **Executor-level** (Hypothesis shuffle tests): per-point seed derivation
  and per-point results are pure functions of the point's canonical key —
  independent of submission order, shard width, and completion order.
* **Experiment-level**: real sweep grids (fig7, failure-sweep, cluster)
  produce the same ``results_digest`` at ``jobs=1``, ``jobs=2`` and
  ``jobs=8``, which is the property the bench harness gates on.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import results_digest
from repro.parallel import SweepPoint, run_points


def keyed_result(point: SweepPoint) -> tuple:
    """A worker whose output is a pure function of the point's identity."""
    return (point.canonical_key, point.derive_seed())


param_grids = st.lists(
    st.tuples(
        st.sampled_from(["float", "json", "html", "cnn", "bert"]),
        st.sampled_from(["cxlfork", "criu-cxl", "mitosis-cxl"]),
        st.integers(min_value=0, max_value=7),
    ),
    min_size=1,
    max_size=12,
    unique=True,
)


@pytest.mark.prop
class TestShuffleIndependence:
    """Per-point derivation never sees submission or completion order."""

    def _points(self, grid) -> list:
        return [
            SweepPoint.make("shuffled", function=fn, mechanism=mech, seed=seed)
            for fn, mech, seed in grid
        ]

    @given(param_grids, st.randoms(use_true_random=False))
    @settings(max_examples=50, deadline=None)
    def test_derived_seeds_are_order_independent(self, grid, rng):
        points = self._points(grid)
        shuffled = list(points)
        rng.shuffle(shuffled)
        by_key = {p.canonical_key: p.derive_seed() for p in points}
        for point in shuffled:
            assert point.derive_seed() == by_key[point.canonical_key]

    @given(param_grids, st.randoms(use_true_random=False))
    @settings(max_examples=50, deadline=None)
    def test_run_points_result_follows_point_not_position(self, grid, rng):
        points = self._points(grid)
        shuffled = list(points)
        rng.shuffle(shuffled)
        straight = run_points(points, keyed_result, jobs=1)
        reordered = run_points(shuffled, keyed_result, jobs=1)
        # Same multiset of results, each aligned with ITS point's slot.
        assert sorted(straight) == sorted(reordered)
        for point, result in zip(shuffled, reordered):
            assert result == keyed_result(point)


class TestExperimentDigests:
    """jobs=1 / jobs=2 / jobs=8 produce identical results_digest."""

    def test_fig7_quick_grid_digest_invariant_across_jobs(self):
        from repro import experiments
        from repro.experiments import fig7_performance

        config = fig7_performance.Config.quick()
        digest = results_digest(experiments.run("fig7", config))
        for jobs in (2, 8):
            parallel = experiments.run("fig7", config, jobs=jobs)
            assert results_digest(parallel) == digest, f"jobs={jobs} diverged"

    @pytest.mark.slow
    def test_failure_sweep_quick_digest_invariant_across_jobs(self):
        from repro import experiments
        from repro.experiments import failure_sweep

        config = failure_sweep.Config.quick()
        digest = results_digest(experiments.run("failure-sweep", config))
        parallel = experiments.run("failure-sweep", config, jobs=2)
        assert results_digest(parallel) == digest

    @pytest.mark.slow
    def test_cluster_quick_digest_invariant_across_jobs(self):
        from repro import experiments
        from repro.experiments import cluster_scale

        config = cluster_scale.Config.quick()
        digest = results_digest(experiments.run("cluster-scale", config))
        parallel = experiments.run("cluster-scale", config, jobs=2)
        assert results_digest(parallel) == digest

    def test_experiment_point_grids_have_unique_canonical_keys(self):
        from repro import experiments

        for name in experiments.REGISTRY:
            module = experiments.load(name)
            for config in (module.Config(), module.Config.quick()):
                keys = [p.canonical_key for p in module.points(config)]
                assert len(keys) == len(set(keys)), name
