"""repro.telemetry — cross-layer tracing, counters, and cost attribution.

See ``docs/TELEMETRY.md`` for span naming conventions, exporter formats,
and overhead notes.  The usual entry points::

    from repro.telemetry import TRACE

    with TRACE.force(True):
        with TRACE.span("cxlfork.restore", clock=node.clock):
            ...
    write_chrome_trace("trace.json")
    print(Breakdown.from_tracer(TRACE).format_table())
"""

from repro.telemetry.breakdown import Breakdown, PhaseRow, SpanGroup
from repro.telemetry.exporters import (
    chrome_trace_events,
    write_chrome_trace,
    write_jsonl,
)
from repro.telemetry.tracer import (
    TRACE,
    Counter,
    Histogram,
    MetricRegistry,
    Span,
    Tracer,
)

__all__ = [
    "Breakdown",
    "PhaseRow",
    "SpanGroup",
    "chrome_trace_events",
    "write_chrome_trace",
    "write_jsonl",
    "TRACE",
    "Counter",
    "Histogram",
    "MetricRegistry",
    "Span",
    "Tracer",
]
