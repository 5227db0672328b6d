"""CXL fabric bandwidth contention (extension of §8).

The paper's tiering policies are driven purely by *latency*; §8 anticipates
that "in a large cluster, limited CXL bandwidth may be a bottleneck" and
plans bandwidth-aware tiering as future work.  This module provides the
substrate: a tracker of offered load on the shared device and a simple
queueing-style inflation of effective access latency as utilization rises.

The model is deliberately coarse — an M/M/1-flavoured ``1 / (1 - ρ)``
inflation, capped — because the experiments only need the qualitative
effect: many nodes hammering shared read-only state slow each other down,
unless a policy moves hot data off the fabric.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.telemetry import TRACE


@dataclass
class BandwidthTracker:
    """Offered load vs capacity on the shared CXL device."""

    #: Sustained read bandwidth of the device shared by all nodes.  The
    #: paper's FPGA prototype sits in the single-digit GB/s range.
    capacity_gbps: float = 8.0
    #: Utilization above which inflation is clamped (queueing model sanity).
    max_utilization: float = 0.95
    _streams: dict[str, float] = field(default_factory=dict)
    #: Running sum of ``_streams`` so :attr:`offered_gbps` is O(1) — the
    #: contention factor reads it on every invocation's access pass.
    _offered_total: float = field(default=0.0, repr=False)
    _mutations: int = field(default=0, repr=False)

    #: Exact re-sum cadence: incremental float add/subtract can drift from
    #: ``sum(dict.values())``, so every Nth mutation recomputes the total
    #: from scratch.  The cadence is a fixed mutation count — never wall
    #: time — so runs stay deterministic and parallel/serial digests match.
    _RESUM_EVERY = 64

    def __post_init__(self) -> None:
        if self.capacity_gbps <= 0:
            raise ValueError(f"capacity must be positive: {self.capacity_gbps}")
        if not 0.0 < self.max_utilization < 1.0:
            raise ValueError(f"bad utilization cap: {self.max_utilization}")
        self._offered_total = sum(self._streams.values())

    # -- load registration -----------------------------------------------------

    def _mutated(self) -> None:
        self._mutations += 1
        if self._mutations >= self._RESUM_EVERY:
            self._mutations = 0
            self._offered_total = sum(self._streams.values())

    def register_stream(self, name: str, gbps: float) -> None:
        """Declare (or update) one consumer's average CXL traffic."""
        if gbps < 0:
            raise ValueError(f"negative traffic: {gbps}")
        self._offered_total += gbps - self._streams.get(name, 0.0)
        self._streams[name] = gbps
        self._mutated()
        if TRACE.active():
            TRACE.count("cxl.stream_updates")
            TRACE.observe("cxl.offered_gbps", self.offered_gbps)

    def unregister_stream(self, name: str) -> None:
        old = self._streams.pop(name, None)
        if old is not None:
            self._offered_total -= old
            self._mutated()

    @property
    def offered_gbps(self) -> float:
        if not self._streams:
            return 0.0  # exact: cancellation drift cannot survive empty
        return self._offered_total

    def utilization(self) -> float:
        return min(self.offered_gbps / self.capacity_gbps, self.max_utilization)

    # -- the effect -----------------------------------------------------------------

    def inflation(self) -> float:
        """Multiplier on effective CXL access latency under contention.

        1.0 when idle; grows as 1/(1-ρ); capped at the utilization limit
        (20x at the default 0.95 cap).
        """
        return 1.0 / (1.0 - self.utilization())


__all__ = ["BandwidthTracker"]
