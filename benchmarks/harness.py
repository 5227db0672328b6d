#!/usr/bin/env python
"""Wall-clock benchmark harness (thin wrapper).

The implementation lives in :mod:`repro.bench` so it is importable wherever
the simulator is; this wrapper exists so the harness can also be run
straight from the repo root without touching PYTHONPATH::

    python benchmarks/harness.py fig7
    python benchmarks/harness.py --quick fig7     # CI mode
    python benchmarks/harness.py --update         # refresh all baselines

Baselines are committed under ``benchmarks/baselines/BENCH_<exp>.json``;
see docs/PERFORMANCE.md for the profiling recipe and update workflow.
"""

from __future__ import annotations

import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.bench import (  # noqa: E402 - path setup must precede the import
    BenchResult,
    compare_to_baseline,
    load_baseline,
    main,
    results_digest,
    run_bench,
    write_baseline,
)

__all__ = [
    "BenchResult",
    "compare_to_baseline",
    "load_baseline",
    "main",
    "results_digest",
    "run_bench",
    "write_baseline",
]

if __name__ == "__main__":
    sys.exit(main())
