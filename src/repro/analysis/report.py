"""One-shot reproduction report.

``generate_report()`` runs every registered experiment (in its quick or
full shape) and emits a markdown document with the measured tables and
headline ratios — the machine-generated companion to the hand-annotated
EXPERIMENTS.md.
"""

from __future__ import annotations

import io
import time


def _section(out, title: str) -> None:
    out.write(f"\n## {title}\n\n")


def format_phase_breakdown() -> str:
    """Per-phase cost table for the spans recorded on :data:`TRACE`.

    Rolls the top-level spans into per-operation groups with each
    direct-child phase's total, mean, and share (``python -m repro run
    <exp> --trace PATH`` prints this after the experiment's rows).  A
    corruption run's nonzero ``ras.*`` counters (poison injected/detected,
    repairs by ladder rung, frames offlined) follow the table.
    """
    from repro.telemetry import TRACE, Breakdown

    breakdown = Breakdown.from_tracer(TRACE)
    if not breakdown.groups:
        return "(no spans recorded — was tracing enabled?)"
    lines = [breakdown.format_table()]
    counters = [
        c for name, c in sorted(TRACE.metrics.counters.items())
        if name.startswith("ras.") and c.value
    ]
    if counters:
        lines += ["", "memory integrity (RAS counters)", f"  {'counter':<28} {'value':>12}"]
        lines += [f"  {c.name:<28} {int(c.value):>12}" for c in counters]
    return "\n".join(lines)


def generate_report(*, quick: bool = True) -> str:
    """Run every registered experiment and return a markdown report.

    ``quick`` runs each experiment's ``Config.quick()`` shape, so the whole
    report builds in minutes; ``quick=False`` runs the full shapes.
    """
    from repro import experiments

    out = io.StringIO()
    started = time.time()
    out.write("# CXLfork reproduction report (generated)\n")
    for name, (_, description) in experiments.REGISTRY.items():
        module = experiments.load(name)
        config = module.Config.quick() if quick else module.Config()
        result = experiments.run(name, config)
        _section(out, f"{description} (`{name}`)")
        out.write("```\n" + module.format_rows(result) + "\n```\n")
        for message in module.gates(result, quick):
            out.write(f"\n**Gate failed:** {message}\n")
    elapsed = time.time() - started
    out.write(f"\n---\n*Report generated in {elapsed:.0f} s of wall time.*\n")
    return out.getvalue()
