"""Virtual nanosecond clock.

Each simulated node owns a :class:`Clock`.  Mechanisms advance it as they
"spend" time (memory copies, fault handling, serialization); the platform
experiments read it to timestamp request latencies.

Clocks also support **alarms**: callbacks armed at an absolute virtual time
that fire *during* the :meth:`advance` that crosses their deadline.  This is
how :mod:`repro.faults` injects a node crash in the middle of a synchronous
operation (checkpoint, restore, fault batch) at a deterministic virtual-time
point — the alarm's action typically fails the node and raises, aborting the
operation with the clock frozen at the crash instant.
"""

from __future__ import annotations

from bisect import insort
from typing import Callable


class ClockAlarm:
    """One armed alarm; cancel by calling :meth:`cancel`."""

    __slots__ = ("deadline", "action", "cancelled")

    def __init__(self, deadline: int, action: Callable[[], None]) -> None:
        self.deadline = int(deadline)
        self.action = action
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "armed"
        return f"ClockAlarm(deadline={self.deadline}, {state})"


class Clock:
    """Monotonic virtual clock counting integer nanoseconds."""

    __slots__ = ("_now", "_alarms")

    def __init__(self, start_ns: int = 0) -> None:
        if start_ns < 0:
            raise ValueError(f"clock cannot start in the past: {start_ns}")
        self._now = int(start_ns)
        #: Armed alarms, kept sorted by deadline (usually 0 or 1 entries,
        #: so a sorted list beats a heap and keeps advance()'s fast path to
        #: a single truthiness check).
        self._alarms: list[ClockAlarm] = []

    @property
    def now(self) -> int:
        """Current virtual time in nanoseconds."""
        return self._now

    def at(self, deadline_ns: int, action: Callable[[], None]) -> ClockAlarm:
        """Arm ``action`` to fire when time crosses absolute ``deadline_ns``.

        Actions fire inside the :meth:`advance`/:meth:`advance_to` call that
        crosses the deadline, with the clock set *to the deadline*.  An
        action that raises leaves the clock at its deadline — the operation
        mid-flight observes virtual time frozen at the fault instant.
        A deadline at or before ``now`` fires on the next advance.
        """
        alarm = ClockAlarm(deadline_ns, action)
        # insort-right keeps equal-deadline alarms in arrival order, same
        # as the stable full sort it replaces, at O(n) shift instead of
        # O(n log n) re-sort per arm.
        insort(self._alarms, alarm, key=lambda a: a.deadline)
        return alarm

    def alarm_due(self) -> bool:
        """Whether an armed alarm would fire on the next advance, even a
        zero-length one (its deadline is at or before ``now``)."""
        alarms = self._alarms
        return bool(alarms) and alarms[0].deadline <= self._now

    def _fire_due(self, target: int) -> None:
        while self._alarms and self._alarms[0].deadline <= target:
            alarm = self._alarms.pop(0)
            if alarm.cancelled:
                continue
            self._now = max(self._now, alarm.deadline)
            alarm.action()
        self._now = max(self._now, target)

    def advance(self, delta_ns: float) -> int:
        """Move time forward by ``delta_ns`` (rounded to whole ns).

        Returns the new time.  Negative deltas are rejected: virtual time is
        monotonic.  Any alarms whose deadline falls inside the advance fire
        in deadline order (see :meth:`at`).
        """
        delta = int(round(delta_ns))
        if delta < 0:
            raise ValueError(f"clock cannot move backwards: {delta_ns}")
        if self._alarms:
            self._fire_due(self._now + delta)
        else:
            self._now += delta
        return self._now

    def advance_to(self, when_ns: int) -> int:
        """Jump forward to absolute time ``when_ns`` (no-op if in the past)."""
        if when_ns > self._now:
            if self._alarms:
                self._fire_due(int(when_ns))
            else:
                self._now = int(when_ns)
        return self._now

    def fork(self) -> "Clock":
        """A new clock starting at this clock's current time."""
        return Clock(self._now)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Clock(now={self._now})"
