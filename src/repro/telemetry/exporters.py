"""Trace exporters: Chrome trace-event JSON and JSONL.

The Chrome format (``chrome://tracing`` / Perfetto "legacy JSON") renders
each virtual clock as one thread track; spans become complete (``"ph": "X"``)
events with microsecond timestamps.  The JSONL format is one self-contained
JSON object per line (spans, then counters, then histogram summaries) for
ad-hoc analysis with ``jq``/pandas.
"""

from __future__ import annotations

import json
from typing import Any

from repro.telemetry.tracer import TRACE

__all__ = [
    "chrome_trace_events",
    "write_chrome_trace",
    "write_jsonl",
]

_NS_PER_US = 1000.0


def chrome_trace_events() -> list[dict[str, Any]]:
    """:data:`TRACE`'s spans as a Chrome trace-event list.

    Counters are attached as global-scope counter (``"ph": "C"``) samples at
    the end of the trace so they show up in the viewer's counter tracks.
    """
    events: list[dict[str, Any]] = []
    tracks_seen: set[int] = set()
    last_ns = 0
    for span in TRACE.spans():
        end = span.end_ns if span.end_ns is not None else span.start_ns
        last_ns = max(last_ns, end)
        tracks_seen.add(span.track)
        event: dict[str, Any] = {
            "name": span.name,
            "cat": span.name.split(".", 1)[0],
            "ph": "X",
            "ts": span.start_ns / _NS_PER_US,
            "dur": (end - span.start_ns) / _NS_PER_US,
            "pid": 0,
            "tid": span.track,
        }
        if span.attrs:
            event["args"] = dict(span.attrs)
        events.append(event)
    for track in sorted(tracks_seen):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": track,
                "args": {"name": TRACE.track_name(track)},
            }
        )
    for name, counter in sorted(TRACE.metrics.counters.items()):
        events.append(
            {
                "name": name,
                "ph": "C",
                "ts": last_ns / _NS_PER_US,
                "pid": 0,
                "args": {"value": counter.value},
            }
        )
    return events


def write_chrome_trace(path: str) -> int:
    """Write a ``chrome://tracing``-loadable JSON file; returns event count."""
    events = chrome_trace_events()
    document = {"traceEvents": events, "displayTimeUnit": "ms"}
    with open(path, "w") as handle:
        json.dump(document, handle)
    return len(events)


def write_jsonl(path: str) -> int:
    """Write one JSON object per span/counter/histogram; returns line count."""
    lines = 0
    with open(path, "w") as handle:
        for span in TRACE.spans():
            record: dict[str, Any] = {
                "type": "span",
                "name": span.name,
                "track": TRACE.track_name(span.track),
                "start_ns": span.start_ns,
                "end_ns": span.end_ns,
                "parent_id": span.parent_id,
                "span_id": span.span_id,
            }
            if span.attrs:
                record["attrs"] = dict(span.attrs)
            handle.write(json.dumps(record) + "\n")
            lines += 1
        for name, counter in sorted(TRACE.metrics.counters.items()):
            handle.write(
                json.dumps({"type": "counter", "name": name, "value": counter.value})
                + "\n"
            )
            lines += 1
        for name, histogram in sorted(TRACE.metrics.histograms.items()):
            handle.write(
                json.dumps(
                    {
                        "type": "histogram",
                        "name": name,
                        "count": histogram.count,
                        "total": histogram.total,
                        "mean": histogram.mean,
                        "p50": histogram.percentile(50),
                        "p99": histogram.percentile(99),
                    }
                )
                + "\n"
            )
            lines += 1
    return lines
