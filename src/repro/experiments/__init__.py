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
* ``gates(result, quick)`` — the paper's claims the result must show,
  as failure messages (empty = pass); ``quick`` says the result is the
  quick shape's, whose gates leave out the claims only the full shape
  can show (a custom config is checked against every claim);
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

from repro import runtime

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


def _measured(run_point, states: dict, point) -> tuple:
    """Run one point under the caller's switch ``states`` against zeroed
    counters; return (row, counter deltas) — the same inline and in a
    worker process, however it was started."""
    runtime.apply(states)
    outer = runtime.counts()
    runtime.zero()
    try:
        return run_point(point), runtime.counts()
    finally:
        runtime.zero()
        runtime.add(outer)


def run(name: str, config=None, *, jobs: int = 1) -> Any:
    """Run experiment ``name`` (``Config()`` by default) over ``jobs`` workers.

    The result is bit-identical for every ``jobs``; so are the counters of
    every :class:`~repro.runtime.Switch`, merged back in point order.
    """
    from repro.parallel import run_points

    module = load(name)
    if config is None:
        config = module.Config()
    measured = run_points(
        module.points(config),
        functools.partial(_measured, module.run_point, runtime.snapshot()),
        jobs=jobs,
    )
    for _, deltas in measured:
        runtime.add(deltas)
    return module.summarize([row for row, _ in measured])


__all__ = ["REGISTRY", "load", "run"]
