"""Recovery policies: capped exponential backoff with deterministic jitter.

Used by the RAS repair ladder (transient CXL OOM during repair) and by
the CXLporter autoscaler (memory-pressure requeues).  The jitter draws
from a named :class:`~repro.sim.rng.RngStream` so retry schedules are
part of the deterministic replay, unlike wall-clock jitter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Type

from repro.sim.rng import RngStream
from repro.sim.units import MS
from repro.telemetry import TRACE


class RetryExhaustedError(RuntimeError):
    """All retry attempts failed; carries the last underlying error."""

    def __init__(self, attempts: int, last: BaseException) -> None:
        super().__init__(
            f"operation failed after {attempts} attempts: {last}"
        )
        self.attempts = attempts
        self.last = last

    def __reduce__(self) -> tuple:
        # Rebuilt from its own arguments, so it crosses a worker boundary.
        return (type(self), (self.attempts, self.last))


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff: ``min(cap, base * 2**attempt)`` ± jitter.

    ``jitter`` is the full relative width of the uniform jitter band: a
    delay ``d`` becomes ``d * (1 - jitter/2 + jitter * u)`` for a uniform
    ``u`` from the provided stream.  With no stream the delay is exact.
    """

    base_ns: int = int(1 * MS)
    cap_ns: int = int(64 * MS)
    max_attempts: int = 6
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.base_ns <= 0:
            raise ValueError(f"backoff base must be positive: {self.base_ns}")
        if self.cap_ns < self.base_ns:
            raise ValueError("backoff cap below base")
        if self.max_attempts < 1:
            raise ValueError(f"need at least one attempt: {self.max_attempts}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1]: {self.jitter}")

    def delay_ns(self, attempt: int, rng: Optional[RngStream] = None) -> int:
        """Backoff delay before retry number ``attempt`` (0-based)."""
        if attempt < 0:
            raise ValueError(f"negative attempt: {attempt}")
        exp = min(attempt, 62)  # keep 2**exp in int64 range
        delay = float(min(self.cap_ns, self.base_ns * (1 << exp)))
        if rng is not None and self.jitter > 0.0:
            delay *= 1.0 - self.jitter / 2.0 + self.jitter * rng.uniform()
        return max(1, int(round(delay)))


def call_with_retries(
    operation: Callable[[], object],
    *,
    policy: RetryPolicy,
    clock,
    rng: Optional[RngStream] = None,
    retry_on: Tuple[Type[BaseException], ...],
    label: str = "retry",
    on_retry: Optional[Callable[[int, BaseException], None]] = None,
):
    """Run ``operation``, retrying ``retry_on`` errors with backoff.

    Each retry advances ``clock`` by the policy's (jittered) delay — the
    caller is *waiting* in virtual time.  Raises
    :class:`RetryExhaustedError` wrapping the final error once
    ``policy.max_attempts`` attempts have failed.  Errors outside
    ``retry_on`` propagate immediately (a dead node is not transient).
    """
    last: Optional[BaseException] = None
    for attempt in range(policy.max_attempts):
        try:
            return operation()
        except retry_on as exc:
            last = exc
            if attempt == policy.max_attempts - 1:
                break
            delay = policy.delay_ns(attempt, rng)
            TRACE.count(f"{label}.retries")
            if TRACE.active():
                TRACE.add_span(
                    f"{label}.backoff", clock.now, delay, clock=clock,
                    attempt=attempt, error=type(exc).__name__,
                )
            if on_retry is not None:
                on_retry(attempt, exc)
            clock.advance(delay)
    raise RetryExhaustedError(policy.max_attempts, last)


__all__ = ["RetryPolicy", "RetryExhaustedError", "call_with_retries"]
