"""Simulation substrate: virtual time, events, RNG, and units.

Everything in the reproduction that "takes time" accrues virtual nanoseconds
on a :class:`~repro.sim.clock.Clock`.  The FaaS platform experiments
additionally use the discrete-event queue in :mod:`repro.sim.events`.
"""

from repro.sim.clock import Clock, ClockAlarm
from repro.sim.events import Event, EventQueue
from repro.sim.rng import RngStream, SeedSequenceFactory
from repro.sim.units import (
    GIB,
    KIB,
    MIB,
    MS,
    NS,
    PAGE_SHIFT,
    PAGE_SIZE,
    SEC,
    US,
    bytes_to_pages,
    format_bytes,
    format_ns,
    pages_to_bytes,
)

__all__ = [
    "Clock",
    "ClockAlarm",
    "Event",
    "EventQueue",
    "RngStream",
    "SeedSequenceFactory",
    "KIB",
    "MIB",
    "GIB",
    "NS",
    "US",
    "MS",
    "SEC",
    "PAGE_SIZE",
    "PAGE_SHIFT",
    "bytes_to_pages",
    "pages_to_bytes",
    "format_bytes",
    "format_ns",
]
