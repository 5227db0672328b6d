"""repro.runtime — process-global switches with named counters.

The checker (``CHECK``), RAS checksums (``RAS``), dedup (``DEDUP``),
restore plans (``RESTORE_PLAN``), the tracer (``TRACE``) and each seeded
mutation (:mod:`repro.check.mutation`) are each a :class:`Switch`.  Every
switch registers itself by name, so the experiment runner can ship the
caller's switch states to worker processes (:func:`snapshot` /
:func:`apply`) and bring each point's counters back (:func:`counts` /
:func:`zero` / :func:`add`): settings and counts are the same at any
``--jobs``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

#: Every switch constructed in this process, by name.
SWITCHES: dict = {}

#: Applied states of switches not imported yet; used at construction.
_PENDING: dict = {}


class Switch:
    """An on/off switch with a reentrant :meth:`force` scope and named
    integer counters kept as plain attributes (``RAS.seals += 1``).

    :meth:`active` is the innermost ``force`` value if any, else
    ``enabled`` — or ``enabled or follows.active()`` for a switch that
    follows another.  It is recomputed on every change, so reading it on
    a hot path costs one attribute load.
    """

    def __init__(
        self,
        name: str,
        *,
        default: bool = False,
        counters: tuple = (),
        follows: Optional["Switch"] = None,
    ) -> None:
        self.name = name
        self.default = default
        self.counter_names = counters
        self.follows = follows
        self._followers: list = []
        if follows is not None:
            follows._followers.append(self)
        self.zero()
        SWITCHES[name] = self
        self.apply(_PENDING.pop(name, (default, None)))

    def active(self) -> bool:
        return self._active

    def _refresh(self) -> None:
        if self._forced is not None:
            self._active = self._forced
        else:
            follows = self.follows
            self._active = self.enabled or (follows is not None and follows.active())
        for follower in self._followers:
            follower._refresh()

    def enable(self) -> None:
        self.apply((True, self._forced))

    def disable(self) -> None:
        self.apply((False, self._forced))

    def reset(self) -> None:
        """Default setting, no force scope, zeroed counters."""
        self.zero()
        self.apply((self.default, None))

    @contextmanager
    def force(self, value: bool) -> Iterator[None]:
        """Pin :meth:`active` to ``value`` for the scope."""
        previous = self._forced
        self.apply((self.enabled, bool(value)))
        try:
            yield
        finally:
            self.apply((self.enabled, previous))

    def state(self) -> tuple:
        """``(enabled, forced)``: what :meth:`apply` restores."""
        return (self.enabled, self._forced)

    def apply(self, state: tuple) -> None:
        self.enabled, self._forced = state
        self._refresh()

    def counts(self) -> dict:
        return {name: getattr(self, name) for name in self.counter_names}

    def zero(self) -> None:
        for name in self.counter_names:
            setattr(self, name, 0)

    def add(self, deltas: dict) -> None:
        for name, delta in deltas.items():
            setattr(self, name, getattr(self, name) + delta)

    def summary(self) -> dict:
        return {"enabled": self.enabled, **self.counts()}

    def describe(self) -> str:
        counts = ", ".join(f"{v} {k}" for k, v in self.counts().items())
        return f"{self.name}: {counts or ('on' if self.active() else 'off')}"


def snapshot() -> dict:
    return {name: switch.state() for name, switch in SWITCHES.items()}


def apply(states: dict) -> None:
    """Restore a :func:`snapshot`; a switch not imported yet gets its
    state when it is constructed."""
    for name, state in states.items():
        if name in SWITCHES:
            SWITCHES[name].apply(state)
        else:
            _PENDING[name] = state


def counts() -> dict:
    return {name: switch.counts() for name, switch in SWITCHES.items()}


def zero() -> None:
    for switch in SWITCHES.values():
        switch.zero()


def add(deltas: dict) -> None:
    """Add :func:`counts` deltas; those of a switch never imported here
    are dropped (nothing in this process can read them)."""
    for name, switch_deltas in deltas.items():
        if name in SWITCHES:
            SWITCHES[name].add(switch_deltas)


__all__ = ["SWITCHES", "Switch", "add", "apply", "counts", "snapshot", "zero"]
