"""Cross-layer tracing over virtual time.

The simulator's layers (kernel fault path, rfork mechanisms, CXL fabric,
tiering, CXLporter) each advance per-node virtual clocks; this module lets
them attribute that virtual time to named **spans** and record typed
**counters** and **histograms**, so experiments can answer *where a
nanosecond went* instead of only *how many were spent*.

Design constraints:

* **Near-zero overhead when disabled.**  Every instrumentation site guards
  on ``TRACE.active()`` (one cached attribute read) or receives the shared
  no-op span; nothing is allocated or recorded on the disabled path.
* **Virtual time, not wall time.**  A span binds to any object exposing a
  ``.now`` integer (a :class:`~repro.sim.clock.Clock`, an
  :class:`~repro.sim.events.EventQueue`, ...) and snapshots it on entry and
  exit.  Distinct clocks map to distinct *tracks* in the exported trace.
* **Phases.**  Mechanisms accrue cost through ``metrics.note(phase, ns)``
  before advancing the clock; :meth:`Span.add_phase` synthesizes the
  matching child span by laying phases end-to-end from the span's start, so
  the children exactly tile the parent.

The process-wide tracer is :data:`TRACE`, the ``trace``
:class:`~repro.runtime.Switch`; ``python -m repro run <exp> --trace PATH``
forces it on, runs, then exports.
"""

from __future__ import annotations

import itertools
from typing import Any, Optional

import numpy as np

from repro.runtime import Switch

__all__ = [
    "Counter",
    "Histogram",
    "MetricRegistry",
    "Span",
    "Tracer",
    "TRACE",
]


class Counter:
    """A monotonically growing named tally."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0

    def add(self, n: float = 1) -> None:
        self.value += n

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Counter({self.name!r}, value={self.value})"


class Histogram:
    """A named distribution; keeps raw observations for exact percentiles.

    The simulator's histograms are small (per-function latencies, per-batch
    fault costs), so storing raw values is cheaper and more faithful than
    bucketing.  Queries go through numpy.
    """

    __slots__ = ("name", "values")

    def __init__(self, name: str) -> None:
        self.name = name
        self.values: list[float] = []

    def observe(self, value: float) -> None:
        self.values.append(float(value))

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def total(self) -> float:
        return float(sum(self.values))

    @property
    def mean(self) -> Optional[float]:
        if not self.values:
            return None
        return self.total / len(self.values)

    def percentile(self, q: float) -> Optional[float]:
        if not self.values:
            return None
        return float(np.percentile(np.asarray(self.values), q))

    def to_numpy(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Histogram({self.name!r}, n={len(self.values)})"


class MetricRegistry:
    """Get-or-create home for counters and histograms.

    The global tracer embeds one; components needing isolated metrics (e.g.
    one :class:`~repro.porter.metrics.LatencyRecorder` per CXLporter
    deployment) create their own.
    """

    def __init__(self) -> None:
        self.counters: dict[str, Counter] = {}
        self.histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        counter = self.counters.get(name)
        if counter is None:
            counter = self.counters[name] = Counter(name)
        return counter

    def histogram(self, name: str) -> Histogram:
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram(name)
        return histogram


class _ZeroClock:
    """Fallback time source for spans opened with no clock in scope."""

    __slots__ = ()
    now = 0


_ZERO_CLOCK = _ZeroClock()


class Span:
    """One named interval of virtual time, possibly nested.

    Use as a context manager (via :meth:`Tracer.span`); the tracer snapshots
    ``clock.now`` on entry and exit.  Phase children are synthesized with
    :meth:`add_phase` and tile the interval from its start.
    """

    __slots__ = (
        "tracer",
        "name",
        "span_id",
        "parent_id",
        "track",
        "clock",
        "start_ns",
        "end_ns",
        "attrs",
        "_elapsed",
    )

    #: Distinguishes real spans from the no-op span without isinstance checks.
    recording = True

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        span_id: int,
        parent_id: Optional[int],
        track: int,
        clock: Any,
        attrs: dict[str, Any],
        start_ns: Optional[int] = None,
        end_ns: Optional[int] = None,
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.track = track
        self.clock = clock
        self.start_ns = int(clock.now) if start_ns is None else start_ns
        self.end_ns = end_ns
        self.attrs = attrs
        self._elapsed = 0.0

    @property
    def duration_ns(self) -> int:
        end = self.end_ns if self.end_ns is not None else int(self.clock.now)
        return end - self.start_ns

    def set(self, **attrs: Any) -> None:
        """Attach (or update) attributes on an open span."""
        self.attrs.update(attrs)

    def add_phase(self, name: str, duration_ns: float, **attrs: Any) -> "Span":
        """Record a finished child span laid immediately after the previous
        phase, so consecutive phases tile this span's interval.  Phase ends
        round the running total, as a clock advanced by it would."""
        start = self.start_ns + int(round(self._elapsed))
        self._elapsed += duration_ns
        child = Span(
            self.tracer, name, next(self.tracer._ids), self.span_id, self.track,
            _ZERO_CLOCK, attrs, start, self.start_ns + int(round(self._elapsed)),
        )
        self.tracer._spans.append(child)
        return child

    def finish(self) -> None:
        """Close the span now (for call sites that cannot use ``with``).

        A span cut short (a crash aborting the clock advance that would
        have paid for its phases) cuts its phases at its end, so they
        still tile it: a phase runs until the crash, and one laid after it
        takes no time."""
        end = self.end_ns = int(self.clock.now)
        if self.start_ns + int(round(self._elapsed)) > end:
            for child in reversed(self.tracer._spans):
                if child is self:
                    break
                if child.parent_id == self.span_id:
                    child.start_ns = min(child.start_ns, end)
                    child.end_ns = min(child.end_ns, end)
        self.tracer._close(self)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.finish()
        return False

    def __reduce__(self) -> tuple:
        """Pickle as a plain record; the tracer and clock stay behind."""
        return (Span, (
            None, self.name, self.span_id, self.parent_id, self.track,
            _ZERO_CLOCK, self.attrs, self.start_ns, self.end_ns,
        ))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Span({self.name!r}, start={self.start_ns}, end={self.end_ns}, "
            f"track={self.track})"
        )


class _NoopSpan:
    """Shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()
    recording = False

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs: Any) -> None:
        pass

    def add_phase(self, name: str, duration_ns: float, **attrs: Any) -> "_NoopSpan":
        return self

    def finish(self) -> None:
        pass


_NOOP_SPAN = _NoopSpan()


class Tracer(Switch):
    """Process-wide span/counter/histogram registry: the ``trace`` switch.

    Its records (spans, tracks, counter and histogram values) are the
    switch's counts, so the experiment runner brings a worker's trace back
    like any counter: :meth:`zero` swaps them for empty ones, :meth:`add`
    appends another run's after these.
    """

    def __init__(self) -> None:
        self._stack: list[Span] = []
        super().__init__("trace")

    # -- records -----------------------------------------------------------------

    def zero(self) -> None:
        self.metrics = MetricRegistry()
        self._spans: list[Span] = []
        self._ids = itertools.count(1)
        # Keyed by the clock itself: a live key's identity is never reused.
        self._tracks: dict[Any, int] = {}
        self._track_names: dict[int, str] = {}
        self._ntracks = 0

    def counts(self) -> dict:
        return {
            "spans": self._spans,
            "tracks": self._ntracks,
            "track_names": self._track_names,
            "counters": {n: c.value for n, c in self.metrics.counters.items()},
            "histograms": {n: h.values for n, h in self.metrics.histograms.items()},
        }

    def add(self, records: dict) -> None:
        """Append ``records`` (a :meth:`counts`): their span ids follow
        this tracer's, their tracks come after its tracks."""
        id_base, track_base = len(self._spans), self._ntracks
        spans = records["spans"]
        if id_base or track_base:
            for span in spans:
                span.span_id += id_base
                if span.parent_id is not None:
                    span.parent_id += id_base
                span.track += track_base
        self._spans.extend(spans)
        self._ids = itertools.count(len(self._spans) + 1)
        self._ntracks += records["tracks"]
        for track, name in records["track_names"].items():
            self._track_names[track + track_base] = name
        for name, value in records["counters"].items():
            self.metrics.counter(name).add(value)
        for name, values in records["histograms"].items():
            self.metrics.histogram(name).values.extend(values)

    def describe(self) -> str:
        return f"trace: {len(self._spans)} span(s), {len(self.metrics.counters)} counter(s)"

    # -- tracks ------------------------------------------------------------------

    def _track_of(self, clock: Any) -> int:
        track = self._tracks.get(clock)
        if track is None:
            track = self._tracks[clock] = self._ntracks
            self._ntracks += 1
        return track

    def register_track(self, clock: Any, name: str) -> None:
        """Give the track of ``clock`` a human-readable name in exports."""
        if not self._active:
            return
        self._track_names[self._track_of(clock)] = name

    def track_name(self, track: int) -> str:
        return self._track_names.get(track, f"track{track}")

    # -- spans -------------------------------------------------------------------

    def span(self, name: str, *, clock: Any = None, **attrs: Any):
        """Open a span; returns a context manager.

        ``clock`` is any object with an integer ``.now``; when omitted, the
        enclosing span's clock is inherited (or a zero clock at top level).
        """
        if not self._active:
            return _NOOP_SPAN
        parent = self._stack[-1] if self._stack else None
        if clock is None:
            clock = parent.clock if parent is not None else _ZERO_CLOCK
        span = Span(
            self, name, next(self._ids),
            parent.span_id if parent is not None else None,
            self._track_of(clock), clock, attrs,
        )
        self._spans.append(span)
        self._stack.append(span)
        return span

    def add_span(
        self,
        name: str,
        start_ns: int,
        duration_ns: float,
        *,
        clock: Any = None,
        top_level: bool = False,
        **attrs: Any,
    ) -> None:
        """Record an already-finished span (e.g. background work whose
        duration is known but which never held the clock).

        It is a child of the open span unless ``top_level``: work off the
        open span's critical path is not one of its phases.
        """
        if not self._active:
            return
        parent = self._stack[-1] if self._stack else None
        track = self._track_of(clock) if clock is not None else (
            parent.track if parent is not None else self._track_of(_ZERO_CLOCK)
        )
        start = int(start_ns)
        self._spans.append(Span(
            self, name, next(self._ids),
            None if parent is None or top_level else parent.span_id,
            track, _ZERO_CLOCK, attrs, start, start + int(round(duration_ns)),
        ))

    def _close(self, span: Span) -> None:
        # Spans close LIFO in correct code; tolerate (and repair) mismatched
        # exits instead of corrupting the stack.
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
            return
        if span in self._stack:  # pragma: no cover - defensive
            while self._stack and self._stack.pop() is not span:
                pass

    def spans(self, name: Optional[str] = None) -> list[Span]:
        if name is None:
            return list(self._spans)
        return [s for s in self._spans if s.name == name]

    # -- metrics shortcuts -------------------------------------------------------

    def count(self, name: str, n: float = 1) -> None:
        if self._active:
            self.metrics.counter(name).add(n)

    def observe(self, name: str, value: float) -> None:
        if self._active:
            self.metrics.histogram(name).observe(value)


#: The process-wide tracer.  Off by default; modules may safely hold a
#: reference — it is zeroed in place, never replaced.
TRACE = Tracer()
