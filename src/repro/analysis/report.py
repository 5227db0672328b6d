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


def format_phase_breakdown(tracer=None, *, names=None) -> str:
    """Per-phase cost table for the spans recorded on ``tracer``.

    Rolls the tracer's top-level spans into per-operation groups with each
    direct-child phase's total, mean, and share (``python -m repro trace``
    prints this after running an experiment).  ``names`` restricts the table
    to specific top-level span names.
    """
    from repro.telemetry import Breakdown, get_tracer

    tracer = tracer if tracer is not None else get_tracer()
    breakdown = Breakdown.from_tracer(tracer, names=names)
    if not breakdown.groups:
        return "(no spans recorded — was tracing enabled?)"
    table = breakdown.format_table()
    ras = format_ras_counters(tracer)
    if ras:
        table = f"{table}\n\n{ras}"
    return table


def format_ras_counters(tracer=None) -> str:
    """Memory-integrity tally for a traced run (empty when RAS never ran).

    Surfaces the ``ras.*`` counters — poison injected/detected, repairs by
    ladder rung, frames offlined, scrub traffic — next to the phase
    breakdown, so a traced corruption run shows *what the RAS layer did*
    alongside where the nanoseconds went.
    """
    from repro.telemetry import get_tracer

    tracer = tracer if tracer is not None else get_tracer()
    counters = [
        c for name, c in sorted(tracer.metrics.counters.items())
        if name.startswith("ras.") and c.value
    ]
    if not counters:
        return ""
    lines = ["memory integrity (RAS counters)"]
    lines.append(f"  {'counter':<28} {'value':>12}")
    for counter in counters:
        lines.append(f"  {counter.name:<28} {int(counter.value):>12}")
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
        for message in module.gates(result):
            out.write(f"\n**Gate failed:** {message}\n")
    elapsed = time.time() - started
    out.write(f"\n---\n*Report generated in {elapsed:.0f} s of wall time.*\n")
    return out.getvalue()
