"""The fault injector: schedules failures at deterministic virtual times.

All randomness flows through one named RNG stream (``faults``), so two runs
with the same root seed inject the same faults at the same virtual
nanoseconds.  Crashes ride on clock alarms (:meth:`repro.sim.Clock.at`),
which fire *during* the ``advance()`` that crosses their deadline — the
only way to interrupt a synchronous checkpoint/restore mid-flight in a
virtual-time simulation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.cxl.allocator import FrameAllocator
from repro.os.kernel import NodeFailedError
from repro.sim.clock import ClockAlarm
from repro.sim.rng import SeedSequenceFactory
from repro.telemetry import TRACE

if TYPE_CHECKING:  # pragma: no cover
    from repro.os.node import ComputeNode


class InjectedCrash(NodeFailedError):
    """A node crash injected by :class:`FaultInjector`.

    Subclasses :class:`NodeFailedError` so every existing handler for a
    dead node treats injected crashes identically to organic ones.
    """


class FaultInjector:
    """Schedules deterministic faults against a pod.

    One injector per experiment; it owns the ``faults`` RNG stream.
    """

    def __init__(
        self,
        *,
        seed: int = 0,
        rng: Optional[SeedSequenceFactory] = None,
    ) -> None:
        factory = rng if rng is not None else SeedSequenceFactory(seed)
        self.rng = factory.stream("faults")

    # -- crashes ------------------------------------------------------------

    def crash_now(self, node: "ComputeNode") -> int:
        """Fail ``node`` immediately; returns processes killed.

        Raises :class:`InjectedCrash` *only* via :meth:`crash_at` — the
        immediate form returns normally so callers can keep orchestrating.
        """
        already = node.failed
        killed = node.fail()
        if not already:
            TRACE.count("faults.crash_injected")
        return killed

    def crash_at(
        self,
        node: "ComputeNode",
        deadline_ns: int,
        *,
        raising: bool = True,
    ) -> ClockAlarm:
        """Arm a crash of ``node`` at absolute virtual time ``deadline_ns``.

        The crash fires during whatever operation advances the node's clock
        across the deadline.  With ``raising`` (the default) the alarm then
        raises :class:`InjectedCrash`, aborting the in-flight operation the
        way a real kernel panic aborts the work the CPU was doing; crash-
        consistency cleanup in the aborted operation's handlers must leave
        zero leaked frames (the failure-sweep invariant).
        """

        def action() -> None:
            if node.failed:
                return
            node.fail()
            TRACE.count("faults.crash_injected")
            if raising:
                raise InjectedCrash(
                    f"node {node.name!r} crashed at t={node.clock.now}ns "
                    "(injected)"
                )

        return node.clock.at(deadline_ns, action)

    # -- memory corruption (RAS) ----------------------------------------------

    def poison_range(self, pool: FrameAllocator, frames) -> int:
        """Poison a set of frames; returns how many were newly flagged.

        Detection is *not* here: the frames sit corrupted until a RAS
        checksum point (seal, restore, replication encode, demand fault)
        touches them — exactly the silent-corruption window real poison
        semantics exist to close.
        """
        newly = pool.poison(frames)
        if newly:
            TRACE.count("ras.poison_injected", newly)
        return newly

    def poison_random(
        self, pool: FrameAllocator, frames, rate: float
    ) -> "np.ndarray":
        """Poison a seed-deterministic ``rate`` fraction of ``frames``.

        At least one frame is hit for any positive rate (a sweep cell with
        poison "on" must actually inject).  Returns the chosen frames.
        """
        arr = np.atleast_1d(np.asarray(frames, dtype=np.int64))
        if arr.size == 0 or rate <= 0.0:
            return np.empty(0, dtype=np.int64)
        count = max(1, int(round(arr.size * min(rate, 1.0))))
        order = self.rng.permutation(arr.size)
        chosen = np.sort(arr[order[:count]])
        self.poison_range(pool, chosen)
        return chosen

    def poison_allocated(self, pool: FrameAllocator, count: int = 1) -> int:
        """Poison ``count`` deterministic frames among those now allocated.

        Used by timed poison (:meth:`poison_at`) landing mid-operation,
        when the caller cannot know which frames exist at the deadline.
        """
        candidates = pool.snapshot_refcounts().frames.tolist()
        if not candidates:
            return 0
        order = self.rng.permutation(len(candidates))
        chosen = [candidates[int(i)] for i in order[: max(1, count)]]
        return self.poison_range(pool, chosen)

    def poison_at(
        self,
        clock,
        pool: FrameAllocator,
        deadline_ns: int,
        *,
        frames=None,
        count: int = 1,
    ) -> ClockAlarm:
        """Arm a poison event at absolute virtual time ``deadline_ns``.

        Fires during whatever operation advances ``clock`` across the
        deadline — mid-checkpoint or mid-replication corruption.  Unlike
        :meth:`crash_at` the alarm never raises: corruption is silent by
        nature; only a later checksum point surfaces it (as
        :class:`repro.exceptions.PoisonError`).
        """

        def action() -> None:
            if frames is not None:
                self.poison_range(pool, frames)
            else:
                self.poison_allocated(pool, count)

        return clock.at(deadline_ns, action)


__all__ = ["FaultInjector", "InjectedCrash"]
