"""Experiment registry: one module per paper figure/table or extension.

Every experiment module implements the same protocol:

* ``Config`` — a dataclass; ``Config()`` is the full shape and
  ``Config.quick()`` the quick shape (the two shapes ``repro bench`` pins);
* ``points(config)`` — the grid as self-contained
  :class:`~repro.parallel.SweepPoint` specs (a non-grid experiment is a
  one-point grid);
* ``run_point(point)`` — one cell, top-level and picklable;
* ``summarize(rows)`` — the per-point results, in point order, folded into
  the experiment's result (the object ``repro bench`` digests);
* ``gates(result)`` — acceptance failures as messages (empty = pass);
* ``format_rows(result)`` — the printed artifact.

:data:`REGISTRY` maps each CLI name to its module path, and the modules
load lazily, so importing one experiment loads no other.  :func:`run` is
the single runner behind ``repro run``, ``repro bench`` and ``repro
report``.
"""

from __future__ import annotations

import functools
import importlib
from typing import Any

#: CLI name -> (module path, description), in report order.
REGISTRY = {
    "table1": ("repro.experiments.table1", "Table 1: evaluation functions"),
    "fig1": ("repro.experiments.fig1_footprint", "Fig. 1: footprint breakdown"),
    "fig3": ("repro.experiments.fig3_motivation", "Fig. 3c: motivation on BERT"),
    "fig6": ("repro.experiments.fig6_coldstart", "Fig. 6: cold-start anatomy"),
    "fig7": ("repro.experiments.fig7_performance", "Fig. 7: rfork performance"),
    "fig8": ("repro.experiments.fig8_tiering", "Fig. 8: tiering policies"),
    "fig9": ("repro.experiments.fig9_sensitivity", "Fig. 9: latency sweep"),
    "fig10": ("repro.experiments.fig10_porter", "Fig. 10: CXLporter"),
    "checkpoint": ("repro.experiments.checkpoint_perf", "§7.1: checkpoint perf"),
    "failure-sweep": (
        "repro.experiments.failure_sweep",
        "Extension: crash-timing sweep (survival, recovery, leak audit)",
    ),
    "corruption-sweep": (
        "repro.experiments.corruption_sweep",
        "Extension: RAS poison sweep (detection, repair ladder, wrong-bytes)",
    ),
    "scalability": ("repro.experiments.scalability", "Extension: bandwidth scaling"),
    "keepalive": ("repro.experiments.keepalive_study", "Extension: keep-alive sweep"),
    "density": (
        "repro.experiments.density",
        "Extension: cross-checkpoint dedup (instances per GB, delta wire bytes)",
    ),
    "write-heavy": ("repro.experiments.write_heavy", "Extension: write-heavy workloads"),
    "cluster-scale": (
        "repro.experiments.cluster_scale",
        "Extension: federated CXL pods vs one naive big pod (§8)",
    ),
}


def load(name: str):
    """Import the module registered under ``name``."""
    return importlib.import_module(REGISTRY[name][0])


def _measured(run_point, point) -> tuple:
    """Run one point against fresh check counters; return (row, counters).

    Swapping in fresh :class:`~repro.check.CheckStats` makes the delta the
    same whether the point runs inline or in a worker process, whose
    counters would otherwise never reach the caller.
    """
    from repro.check import CHECK, CheckStats

    outer, CHECK.stats = CHECK.stats, CheckStats()
    try:
        return run_point(point), CHECK.stats
    finally:
        CHECK.stats = outer


def run(name: str, config=None, *, jobs: int = 1) -> Any:
    """Run experiment ``name`` (``Config()`` by default) over ``jobs`` workers.

    The result is bit-identical for every ``jobs``; so are the
    :data:`~repro.check.CHECK` counters, merged back in point order.
    """
    from repro.check import CHECK
    from repro.parallel import run_points

    module = load(name)
    if config is None:
        config = module.Config()
    measured = run_points(
        module.points(config),
        functools.partial(_measured, module.run_point),
        jobs=jobs,
    )
    for _, stats in measured:
        CHECK.stats.merge(stats)
    return module.summarize([row for row, _ in measured])


__all__ = ["REGISTRY", "load", "run"]
