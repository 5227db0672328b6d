#!/usr/bin/env python
"""Sweep the CXL device latency and watch who cares (Fig. 9, as a chart).

Runs CXLfork's warm/cold execution against local-fork baselines while the
device round trip drops from 400 ns (the paper's FPGA prototype) to 100 ns
(local-DRAM-like), then draws the warm series as an ASCII plot: only the
cache-exceeding functions (BFS, Bert) bend.

Run:  python examples/latency_sensitivity.py
"""

from repro import experiments
from repro.experiments import fig9_sensitivity


def main() -> None:
    config = fig9_sensitivity.Config(functions=("float", "cnn", "bfs", "bert"))
    rows = experiments.run("fig9", config)
    print(fig9_sensitivity.format_rows(rows))
    print()
    print(fig9_sensitivity.chart(rows))
    print()
    print("reading: warm-time penalty vs a local fork; flat lines fit the")
    print("64 MB L3, bending lines (BFS, Bert) stream read-only state from")
    print("the CXL tier on every cache miss (§7.1).")


if __name__ == "__main__":
    main()
