"""Property test: no interleaving of crashes and rforks leaks a frame.

Satellite of the fault-injection tentpole: Hypothesis drives random
interleavings of checkpoint / restore / invoke / delete / exit with
crashes armed at arbitrary virtual-time offsets (so they fire *inside*
whichever operation happens to advance the victim's clock), and asserts
that the pod-wide leak audit stays clean for every mechanism.  This is
the generalized form of the hand-picked scenarios in
``test_failure_recovery.py``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cxl.allocator import OutOfMemoryError
from repro.experiments.common import make_pod, prepare_parent
from repro.faults import FaultInjector, audit_pod
from repro.os.kernel import NodeFailedError
from repro.os.proc.task import TaskState
from repro.sim.units import US

pytestmark = pytest.mark.prop

OPS = ("crash", "checkpoint", "restore", "invoke", "delete", "exit")

#: Recoverable outcomes of any single step.  An injected crash surfaces
#: as ``NodeFailedError`` (``InjectedCrash`` subclasses it).
STEP_ERRORS = (NodeFailedError, OutOfMemoryError)


@st.composite
def fault_scripts(draw):
    """A sequence of (op, node_index, pick, delay_ns) steps."""
    steps = draw(
        st.lists(
            st.tuples(
                st.sampled_from(OPS),
                st.integers(min_value=0, max_value=2),
                st.integers(min_value=0, max_value=7),
                st.integers(min_value=10, max_value=5000),  # microseconds
            ),
            min_size=1,
            max_size=12,
        )
    )
    return steps


class TestCrashInterleavings:
    @pytest.mark.parametrize("mech_name", ["cxlfork", "criu-cxl", "mitosis-cxl"])
    @given(script=fault_scripts())
    @settings(max_examples=15, deadline=None)
    def test_any_interleaving_audits_clean(self, mech_name, script):
        from repro.rfork.registry import get_mechanism

        pod = make_pod(node_count=3)
        parent = prepare_parent(pod, "json")
        mech = get_mechanism(mech_name, fabric=pod.fabric, cxlfs=pod.cxlfs)
        injector = FaultInjector(seed=0)
        checkpoints = []
        clones = []
        second_parent = None

        base, _ = mech.checkpoint(parent.instance.task)
        checkpoints.append(base)

        for op, node_idx, pick, delay_us in script:
            node = pod.nodes[node_idx]
            try:
                if op == "crash":
                    if not node.failed:
                        # Armed, not immediate: it fires inside whatever
                        # operation next advances this node's clock.
                        injector.crash_at(node, node.clock.now + delay_us * US)
                elif op == "checkpoint":
                    if second_parent is None and not pod.nodes[1].failed:
                        second_parent = prepare_parent(
                            pod, "json", node=pod.nodes[1]
                        )
                    if (
                        second_parent is not None
                        and second_parent.instance.task.state
                        is not TaskState.DEAD
                    ):
                        ckpt, _ = mech.checkpoint(second_parent.instance.task)
                        checkpoints.append(ckpt)
                elif op == "restore":
                    if checkpoints and not node.failed:
                        ckpt = checkpoints[pick % len(checkpoints)]
                        result = mech.restore(ckpt, node)
                        clones.append(result.task)
                elif op == "invoke":
                    if clones:
                        task = clones[pick % len(clones)]
                        if task.state is not TaskState.DEAD:
                            parent.workload.invoke(
                                parent.workload.placed_plan_for(
                                    parent.instance, task
                                )
                            )
                elif op == "delete":
                    if len(checkpoints) > 1:  # keep the base image around
                        checkpoints.pop(pick % len(checkpoints)).delete()
                elif op == "exit":
                    if clones:
                        task = clones.pop(pick % len(clones))
                        if (
                            task.state is not TaskState.DEAD
                            and not task.node.failed
                        ):
                            task.node.kernel.exit_task(task)
            except STEP_ERRORS:
                # Crashed mid-operation (or hit a dead node / a full
                # pool).  The invariant below must hold regardless.
                continue

        report = audit_pod(
            pod.fabric, pod.nodes, cxlfs=pod.cxlfs, checkpoints=checkpoints
        )
        assert report.clean, report.describe()
