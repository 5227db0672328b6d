"""Command-line entry point: run any experiment by name.

Usage::

    python -m repro list
    python -m repro run fig7
    python -m repro run fig10 --quick
    python -m repro run fig7 --check
    python -m repro run fig7 --jobs 8
    python -m repro run fig6 --trace trace.json [--jsonl spans.jsonl]
    python -m repro report [--full] [-o report.md]
    python -m repro bench [--quick] [--update] [fig7 fig3 ...]
    python -m repro check [--seed 0] [--steps 60] [--mutation NAME ...]

Every experiment comes from the registry in :mod:`repro.experiments`.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import sys

from repro import experiments, runtime
from repro.experiments import REGISTRY


def _cmd_list() -> int:
    width = max(len(name) for name in REGISTRY)
    for name, (_, description) in REGISTRY.items():
        print(f"{name:<{width}}  {description}")
    return 0


def _cmd_run(
    name: str,
    quick: bool = False,
    check: bool = False,
    seed: int | None = None,
    jobs: int = 1,
    trace: str | None = None,
    jsonl: str | None = None,
) -> int:
    """Run one experiment, print it, and exit non-zero on any gate failure.
    ``check`` adds every switch's line; ``trace``/``jsonl`` run it traced,
    write the trace there and add the phase table."""
    # Every module that owns a switch, so the [check] block lists them all.
    import repro.check.mutation  # noqa: F401
    import repro.dedup  # noqa: F401
    import repro.rfork.restoreplan  # noqa: F401
    from repro.analysis.report import format_phase_breakdown
    from repro.check import CHECK
    from repro.telemetry import TRACE, write_chrome_trace, write_jsonl

    if name not in REGISTRY:
        print(f"unknown experiment {name!r}; `python -m repro list`",
              file=sys.stderr)
        return 2
    module = experiments.load(name)
    config = module.Config.quick() if quick else module.Config()
    if seed is not None:
        if "seed" not in {f.name for f in dataclasses.fields(config)}:
            print(f"experiment {name!r} does not take a seed "
                  "(its Config has no seed field)", file=sys.stderr)
            return 2
        config = dataclasses.replace(config, seed=seed)
    if jobs == 0:
        from repro.parallel import default_jobs

        jobs = default_jobs()
    traced = trace is not None or jsonl is not None
    if check or traced:
        runtime.zero()
    with contextlib.ExitStack() as scope:
        if check:
            scope.enter_context(CHECK.force(True))
        if traced:
            scope.enter_context(TRACE.force(True))
        result = experiments.run(name, config, jobs=jobs)
    print(module.format_rows(result))
    failures = module.gates(result, quick)
    for message in failures:
        print(f"FAIL: {message}")
    if check:
        print()
        for switch in runtime.SWITCHES.values():
            print(f"[check] {switch.describe()}")
    if trace is not None:
        events = write_chrome_trace(trace)
        print(f"\nwrote {trace} ({events} trace events; "
              "load in chrome://tracing or https://ui.perfetto.dev)")
    if jsonl is not None:
        print(f"wrote {jsonl} ({write_jsonl(jsonl)} records)")
    if traced:
        print("\nPhase breakdown (virtual time):\n")
        print(format_phase_breakdown())
    return 1 if failures else 0


def _cmd_report(full: bool, output: str | None) -> int:
    from repro.analysis.report import generate_report

    text = generate_report(quick=not full)
    if output:
        with open(output, "w") as handle:
            handle.write(text)
        print(f"wrote {output}")
    else:
        print(text)
    return 0


def main(argv=None) -> int:
    args_in = list(sys.argv[1:] if argv is None else argv)
    if args_in and args_in[0] == "bench":
        # The bench harness owns its argument parsing (see repro.bench).
        from repro.bench import main as bench_main

        return bench_main(args_in[1:])
    if args_in and args_in[0] == "check":
        # The scenario fuzzer owns its argument parsing (see repro.check.fuzz).
        from repro.check.fuzz import main as check_main

        return check_main(args_in[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="CXLfork reproduction: run the paper's experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    run_parser = sub.add_parser("run", help="run one experiment")
    run_parser.add_argument("experiment", help="experiment name (see `list`)")
    run_parser.add_argument("--quick", action="store_true",
                            help="the experiment's quick shape")
    run_parser.add_argument("--check", action="store_true",
                            help="run under the repro.check differential "
                                 "oracle + invariant checker")
    run_parser.add_argument("--seed", type=int, default=None,
                            help="seed (experiments whose Config has one)")
    run_parser.add_argument("--jobs", type=int, default=1,
                            help="worker processes for sweep grids "
                                 "(0 = one per CPU; results are "
                                 "bit-identical to --jobs 1)")
    run_parser.add_argument("--trace", default=None, metavar="PATH",
                            help="run traced; write a Chrome trace-event "
                                 "JSON here and print the phase table")
    run_parser.add_argument("--jsonl", default=None, metavar="PATH",
                            help="run traced; write a JSONL span/metric "
                                 "dump here")
    sub.add_parser(
        "bench",
        help="wall-clock benchmark harness (handled above; see repro.bench)",
    )
    sub.add_parser(
        "check",
        help="differential-oracle scenario fuzzer (handled above; "
             "see repro.check.fuzz)",
    )
    report_parser = sub.add_parser("report", help="generate the full report")
    report_parser.add_argument("--full", action="store_true",
                               help="full-scale sweeps (slow)")
    report_parser.add_argument("-o", "--output", default=None,
                               help="write the report to a file")
    args = parser.parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(
            args.experiment, args.quick, args.check, args.seed, args.jobs,
            args.trace, args.jsonl,
        )
    if args.command == "report":
        return _cmd_report(args.full, args.output)
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
