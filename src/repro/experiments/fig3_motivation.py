"""Figure 3c: the motivation experiment — CRIU-CXL and Mitosis-CXL forking
a BERT instance to a new node, vs local fork.

Paper anchors: CRIU's restore alone takes 2.7x the local fork + execution
time and its child consumes 42x the local memory of a local fork's child;
Mitosis ends up 2.6x slower end-to-end with 24x the memory (§2.3).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import (
    ColdStartMeasurement,
    claim,
    failed,
    make_pod,
    measure_cold_start,
    prepare_parent,
)
from repro.parallel import SweepPoint
from repro.sim.units import MS

MECHANISMS = ("localfork", "criu-cxl", "mitosis-cxl")


@dataclass
class Fig3Result:
    """The motivating BERT comparison."""

    localfork_total_ms: float
    criu_restore_ms: float
    criu_total_ms: float
    mitosis_total_ms: float
    localfork_mb: float
    criu_mb: float
    mitosis_mb: float

    @property
    def criu_restore_vs_localfork_total(self) -> float:
        """Paper: just CRIU's restore is ~2.7x local fork + execution."""
        return self.criu_restore_ms / self.localfork_total_ms

    @property
    def mitosis_total_vs_localfork(self) -> float:
        """Paper: ~2.6x."""
        return self.mitosis_total_ms / self.localfork_total_ms

    @property
    def criu_mem_vs_localfork(self) -> float:
        """Paper: ~42x."""
        return self.criu_mb / self.localfork_mb

    @property
    def mitosis_mem_vs_localfork(self) -> float:
        """Paper: ~24x."""
        return self.mitosis_mb / self.localfork_mb


@dataclass(frozen=True)
class Config:
    """One function; the paper uses BERT."""

    function: str = "bert"

    @classmethod
    def quick(cls) -> "Config":
        return cls()


def points(config: Config) -> list:
    return [
        SweepPoint.make("fig3", function=config.function, mechanism=mech)
        for mech in MECHANISMS
    ]


def run_point(point: SweepPoint) -> ColdStartMeasurement:
    """One mechanism's remote fork of the function, on a fresh pod."""
    pod = make_pod()
    parent = prepare_parent(pod, point.param("function"))
    return measure_cold_start(pod, parent, point.param("mechanism"))


def summarize(rows: list) -> Fig3Result:
    results = dict(zip(MECHANISMS, rows))
    return Fig3Result(
        localfork_total_ms=results["localfork"].total_ns / MS,
        criu_restore_ms=results["criu-cxl"].restore_ns / MS,
        criu_total_ms=results["criu-cxl"].total_ns / MS,
        mitosis_total_ms=results["mitosis-cxl"].total_ns / MS,
        localfork_mb=results["localfork"].local_mb,
        criu_mb=results["criu-cxl"].local_mb,
        mitosis_mb=results["mitosis-cxl"].local_mb,
    )


def gates(result: Fig3Result, quick: bool) -> list:
    """CRIU's restore alone outlasts a local fork + execution; CRIU is
    slowest end to end and its child, sharing nothing, the largest."""
    r = result
    return failed("fig3", [
        claim("criu_restore_vs_localfork_total", r.criu_restore_vs_localfork_total, gt=1.5),
        claim("mitosis_total_vs_localfork", r.mitosis_total_vs_localfork, gt=1.4),
        (r.criu_total_ms > r.mitosis_total_ms > r.localfork_total_ms,
         "total time: CRIU-CXL > Mitosis-CXL > local fork does not hold"),
        claim("criu_mem_vs_localfork", r.criu_mem_vs_localfork, gt=10),
        claim("mitosis_mem_vs_localfork", r.mitosis_mem_vs_localfork, gt=4),
        (r.criu_mb > r.mitosis_mb > r.localfork_mb,
         "child memory: CRIU-CXL > Mitosis-CXL > local fork does not hold"),
    ])


def format_rows(result: Fig3Result) -> str:
    return "\n".join(
        [
            f"local fork + exec:      {result.localfork_total_ms:8.1f} ms, "
            f"{result.localfork_mb:7.1f} MB",
            f"CRIU-CXL restore:       {result.criu_restore_ms:8.1f} ms "
            f"({result.criu_restore_vs_localfork_total:.2f}x local fork+exec; paper ~2.7x)",
            f"CRIU-CXL total:         {result.criu_total_ms:8.1f} ms, "
            f"{result.criu_mb:7.1f} MB ({result.criu_mem_vs_localfork:.0f}x mem; paper ~42x)",
            f"Mitosis-CXL total:      {result.mitosis_total_ms:8.1f} ms "
            f"({result.mitosis_total_vs_localfork:.2f}x; paper ~2.6x), "
            f"{result.mitosis_mb:7.1f} MB ({result.mitosis_mem_vs_localfork:.0f}x mem; paper ~24x)",
        ]
    )
