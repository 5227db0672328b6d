"""repro.check — correctness tooling for the rfork mechanisms.

The paper's core claim is *semantic equivalence*: a CXLfork child must be
indistinguishable from a CRIU-restored or Mitosis-forked child — same
logical address-space contents, protections, and CoW behaviour — only
cheaper.  This package proves it on every run that opts in:

* :mod:`repro.check.oracle` — differential address-space oracle.  Snapshots
  a parent's logical contents and diffs any child against it (and against
  children produced by the other mechanisms) at page granularity.
* :mod:`repro.check.invariants` — pod-wide invariant checker runnable at
  clock barriers: frame refcounts vs. PTE back-references, no dangling
  ATTACHED leaves, shootdown/TLB soundness proxies, allocator totals vs.
  the ``faults.audit`` owner model.
* :mod:`repro.check.fuzz` — seed-reproducible scenario fuzzer driving
  randomized fork/write/read/migrate/crash interleavings through all three
  mechanisms in lockstep.
* :mod:`repro.check.mutation` — env-var-gated deliberate bugs that the
  oracle must catch (the checker's own smoke test).

Like :data:`repro.telemetry.TRACE`, a process-global :data:`CHECK` toggle
lets the CLI (``python -m repro run <exp> --check``) and the experiment
plumbing enable checking without threading a flag through every call site.
All checks are read-only walks of simulator state and never advance a
virtual clock, so enabling them cannot perturb experiment outputs — bench
digests stay bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class CheckFailure(AssertionError):
    """A correctness check failed (oracle divergence or invariant violation)."""


@dataclass
class CheckStats:
    """Counters for one checking session."""

    oracle_runs: int = 0
    invariant_runs: int = 0
    divergences: int = 0
    violations: int = 0
    failures: list = field(default_factory=list)

    def merge(self, other: "CheckStats") -> None:
        """Add another session's counters (e.g. one sweep point's) to these."""
        self.oracle_runs += other.oracle_runs
        self.invariant_runs += other.invariant_runs
        self.divergences += other.divergences
        self.violations += other.violations
        self.failures.extend(other.failures)


class CheckRuntime:
    """Process-global switch for the correctness checkers.

    Disabled by default (zero overhead).  When enabled, the experiment
    plumbing snapshots parents, diffs children, and runs invariant sweeps;
    any failure raises :class:`CheckFailure` unless ``raise_on_failure`` is
    cleared, in which case failures accumulate in ``stats.failures``.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.raise_on_failure = True
        self.stats = CheckStats()

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        self.enabled = False
        self.raise_on_failure = True
        self.stats = CheckStats()

    def fail(self, message: str) -> None:
        """Record a check failure; raise unless in accumulate mode."""
        self.stats.failures.append(message)
        if self.raise_on_failure:
            raise CheckFailure(message)

    def summary(self) -> str:
        s = self.stats
        if s.failures:
            status = f"{len(s.failures)} FAILURE(S)"
        elif s.oracle_runs or s.invariant_runs:
            status = "clean"
        else:
            status = "NOTHING CHECKED"
        return (
            f"check: {s.oracle_runs} oracle run(s), "
            f"{s.invariant_runs} invariant sweep(s), "
            f"{s.divergences} divergence(s), {s.violations} violation(s) — {status}"
        )


#: The process-global checking runtime (mirrors ``telemetry.TRACE``).
CHECK = CheckRuntime()

__all__ = ["CHECK", "CheckFailure", "CheckRuntime", "CheckStats"]
