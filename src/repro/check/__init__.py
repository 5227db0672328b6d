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

:data:`CHECK` is a :class:`repro.runtime.Switch`, so the CLI (``python -m
repro run <exp> --check``) and the experiment plumbing turn checking on
without threading a flag through every call site.  All checks are
read-only walks of simulator state and never advance a virtual clock, so
enabling them cannot perturb experiment outputs — bench digests stay
bit-identical.
"""

from __future__ import annotations

from repro.runtime import Switch


class CheckFailure(AssertionError):
    """A correctness check failed (oracle divergence or invariant violation)."""


class Checker(Switch):
    """The checkers' :class:`~repro.runtime.Switch`: off by default; when
    active, the experiment plumbing diffs children and runs invariant
    sweeps, counting each sweep and what it found."""

    def fail(self, message: str) -> None:
        """Count a check failure and raise it."""
        self.failures += 1
        raise CheckFailure(message)

    def tally(
        self, runs: str, problems: str, found: int, report, *, fatal: bool = False
    ) -> None:
        """Count one sweep into ``runs``; a dirty ``report`` adds ``found``
        to ``problems`` and counts a failure, raised when ``fatal``."""
        if not self.active():
            return
        setattr(self, runs, getattr(self, runs) + 1)
        if report.clean:
            return
        setattr(self, problems, getattr(self, problems) + found)
        if fatal:
            self.fail(report.describe())  # raises
        self.failures += 1

    def describe(self) -> str:
        if self.failures:
            status = f"{self.failures} FAILURE(S)"
        elif self.oracle_runs or self.invariant_runs:
            status = "clean"
        else:
            status = "NOTHING CHECKED"
        return (
            f"check: {self.oracle_runs} oracle run(s), "
            f"{self.invariant_runs} invariant sweep(s), "
            f"{self.divergences} divergence(s), {self.violations} violation(s)"
            f" — {status}"
        )


#: The process-global checking switch.
CHECK = Checker(
    "check",
    counters=("oracle_runs", "invariant_runs", "divergences", "violations", "failures"),
)

__all__ = ["CHECK", "CheckFailure", "Checker"]
