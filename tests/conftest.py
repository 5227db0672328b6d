"""Shared fixtures: small pods, kernels, prepared functions, checking."""

from __future__ import annotations

import pytest

from repro.experiments.common import make_pod
from repro.faas.workload import FunctionWorkload
from repro.sim.units import GIB


@pytest.fixture
def pod():
    """A small two-node pod (4 GiB DRAM/node, 8 GiB CXL)."""
    return make_pod(dram_bytes=4 * GIB, cxl_bytes=8 * GIB)


@pytest.fixture
def fabric(pod):
    return pod.fabric


@pytest.fixture
def node0(pod):
    return pod.nodes[0]


@pytest.fixture
def node1(pod):
    return pod.nodes[1]


@pytest.fixture
def kernel(node0):
    return node0.kernel


@pytest.fixture
def parent(pod):
    """A seasoned small ``float`` function on the pod's source node —
    the common starting point of every rfork/porter test."""
    workload = FunctionWorkload("float")
    instance = workload.build_instance(pod.source)
    workload.season(instance)
    return workload, instance


@pytest.fixture
def checkpointed(parent):
    """``parent`` plus its CXLfork checkpoint."""
    from repro.rfork.cxlfork import CxlFork

    workload, instance = parent
    mech = CxlFork()
    ckpt, metrics = mech.checkpoint(instance.task)
    return workload, instance, mech, ckpt, metrics


@pytest.fixture
def check_enabled():
    """Enable the repro.check runtime for one test, reset afterwards."""
    from repro.check import CHECK

    CHECK.reset()
    CHECK.enable()
    yield CHECK
    CHECK.disable()
    CHECK.reset()


@pytest.fixture
def touched_bytes():
    """Reference per-invocation working set of a ``FunctionSpec`` in bytes:
    each segment role's share of the footprint times the fraction of it
    one invocation touches."""

    def working_set(spec) -> int:
        return int(
            spec.footprint_bytes
            * (
                spec.init_frac * spec.init_touch_frac
                + spec.ro_frac * spec.ro_touch_frac
                + spec.rw_frac * spec.rw_touch_frac
            )
        )

    return working_set
