"""Figure 6: the anatomy of a cold start — state initialization vs
container creation.

The paper measures 250-500 ms of per-function state initialization plus a
~130 ms container-creation cost that barely varies across functions, and a
bare configured container holding only 512 KB.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.tables import format_summary
from repro.experiments.common import make_pod
from repro.faas.container import ContainerFactory
from repro.faas.functions import function_names
from repro.faas.workload import FunctionWorkload
from repro.parallel import SweepPoint
from repro.sim.units import MS


@dataclass
class Fig6Row:
    """One bar of Fig. 6."""

    function: str
    container_create_ms: float
    state_init_ms: float

    @property
    def total_ms(self) -> float:
        return self.container_create_ms + self.state_init_ms


@dataclass(frozen=True)
class Config:
    """Which functions to build (None = all of Table 1)."""

    functions: Optional[tuple] = None

    @classmethod
    def quick(cls) -> "Config":
        return cls(functions=("float", "json", "bfs", "bert"))


def points(config: Config) -> list:
    names = config.functions or function_names()
    return [SweepPoint.make("fig6", function=fn) for fn in names]


def run_point(point: SweepPoint) -> Fig6Row:
    """Create a container, then build the function in it, on a fresh pod."""
    fn = point.param("function")
    pod = make_pod()
    node = pod.source
    factory = ContainerFactory(node)
    t0 = node.clock.now
    container = factory.create(fn)
    t1 = node.clock.now
    workload = FunctionWorkload(fn)
    workload.build_instance(node, container=container)
    t2 = node.clock.now
    return Fig6Row(
        function=fn,
        container_create_ms=(t1 - t0) / MS,
        state_init_ms=(t2 - t1) / MS,
    )


def summarize(rows: list) -> list:
    return rows


def gates(rows: list) -> list:
    return []


def headline(rows: list) -> dict:
    creates = [r.container_create_ms for r in rows]
    inits = [r.state_init_ms for r in rows]
    return {
        "container_create_ms_mean": sum(creates) / len(creates),
        "container_create_ms_spread": max(creates) - min(creates),
        "state_init_ms_min": min(inits),
        "state_init_ms_max": max(inits),
    }


def format_rows(rows: list) -> str:
    lines = [f"{'function':<12} {'container(ms)':>14} {'state init(ms)':>15} {'total':>9}"]
    for row in rows:
        lines.append(
            f"{row.function:<12} {row.container_create_ms:>14.1f} "
            f"{row.state_init_ms:>15.1f} {row.total_ms:>9.1f}"
        )
    return "\n".join(lines) + "\n\n" + format_summary(headline(rows))
