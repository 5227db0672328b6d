"""Property-based: dedup-on interleavings conserve chunk refcounts.

Three layers:

* every generated fuzz scenario (fork storms, CoW writes, child exits,
  barriers, crashes) must hold the oracle and the frame-leak audit with
  dedup forced on, exactly as it does dedup-off — the differential
  equivalence satellite;
* a dedicated fork/write/exit/re-checkpoint interleaving machine whose
  invariant after every step is the chunk-sharer census: each registered
  frame's sharer count equals the number of live checkpoints listing it,
  and tearing everything down drains the index to empty with zero leaked
  frames;
* a twin model: the array ``ChunkInterner`` against a per-page reference
  of the same seal, compared frame by frame, allocation by allocation.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.check.fuzz import ScenarioRunner, scenario_strategy
from repro.check.invariants import check_pod
from repro.cxl.fabric import CxlFabric
from repro.dedup import DEDUP, MISS, NO_CODE
from repro.dedup.seal import ChunkInterner
from repro.experiments.common import make_pod
from repro.rfork.registry import get_mechanism
from repro.sim.units import GIB

pytestmark = pytest.mark.prop

_SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@settings(max_examples=6, **_SETTINGS)
@given(scenario=scenario_strategy(max_steps=12))
def test_fuzz_scenarios_hold_with_dedup_on(scenario):
    """Satellite: the PR-4 differential oracle passes every scenario with
    dedup on — content-addressed placement must be invisible to resolved
    child memory across all mechanisms."""
    with DEDUP.force(True):
        result = ScenarioRunner(scenario).run()
    assert result.ok, result.failure
    assert result.ops_applied == len(scenario.ops)


@settings(max_examples=8, **_SETTINGS)
@given(data=st.data())
def test_interleavings_conserve_chunk_refcounts(data):
    ops = data.draw(
        st.lists(
            st.sampled_from(["fork", "write", "exit", "reseal"]),
            min_size=1,
            max_size=14,
        ),
        label="ops",
    )
    with DEDUP.force(True):
        pod = make_pod(node_count=2, dram_bytes=1 * GIB, cxl_bytes=4 * GIB)
        kernel = pod.source.kernel
        parent = kernel.spawn_task("prop-parent")
        anon = kernel.map_anon_region(parent, 48, label="prop", populate=True)
        kernel.map_anon_region(parent, 16, label="sparse", populate=False)
        mech = get_mechanism("cxlfork", fabric=pod.fabric, cxlfs=pod.cxlfs)
        base, _ = mech.checkpoint(parent)
        checkpoints = [base]
        children = []
        index = pod.fabric.chunk_index

        def census_holds():
            problems = index.audit(checkpoints)
            assert not problems, "; ".join(problems)

        for op in ops:
            if op == "fork":
                source = checkpoints[
                    data.draw(
                        st.integers(0, len(checkpoints) - 1), label="ckpt"
                    )
                ]
                children.append(mech.restore(source, pod.target).task)
            elif op == "write" and children:
                task = children[
                    data.draw(st.integers(0, len(children) - 1), label="child")
                ]
                offset = data.draw(st.integers(0, 47), label="vpn")
                pod.target.kernel.access_range(
                    task, anon.start_vpn + offset, 1, write=True
                )
            elif op == "exit" and children:
                task = children.pop(
                    data.draw(st.integers(0, len(children) - 1), label="victim")
                )
                pod.target.kernel.exit_task(task)
            elif op == "reseal" and children:
                task = children[
                    data.draw(st.integers(0, len(children) - 1), label="source")
                ]
                ckpt, _ = mech.checkpoint(task)
                checkpoints.append(ckpt)
            census_holds()

        # Teardown in the only legal order: children, then the re-seals
        # (never restored from), then the base image.
        for task in children:
            pod.target.kernel.exit_task(task)
        for ckpt in reversed(checkpoints[1:]):
            ckpt.delete()
            checkpoints.remove(ckpt)
        census_holds()
        check_pod(
            pod.fabric,
            pod.nodes,
            cxlfs=pod.cxlfs,
            checkpoints=checkpoints,
            audit=True,
            raise_on_violation=True,
        )
        base.delete()
        assert len(index) == 0
        check_pod(
            pod.fabric,
            pod.nodes,
            cxlfs=pod.cxlfs,
            checkpoints=[],
            audit=True,
            raise_on_violation=True,
        )


@pytest.mark.parametrize("mechanism", ["cxlfork", "criu-cxl", "mitosis-cxl"])
def test_resolved_child_views_identical_dedup_on_vs_off(mechanism):
    """Satellite: per mechanism, a restored child's fully resolved memory
    view (structure + per-page content labels) is bit-identical whether the
    image was sealed dedup-on or dedup-off."""
    from repro.check.oracle import capture_snapshot, resolve_view
    from repro.faas.workload import FunctionWorkload

    def child_view(dedup):
        with DEDUP.force(dedup):
            pod = make_pod(node_count=2, dram_bytes=2 * GIB, cxl_bytes=8 * GIB)
            workload = FunctionWorkload("float")
            instance = workload.build_instance(pod.source)
            workload.season(instance)
            mech = get_mechanism(
                mechanism, fabric=pod.fabric, cxlfs=pod.cxlfs
            )
            ckpt, _ = mech.checkpoint(instance.task)
            snapshot = capture_snapshot(instance.task)
            restored = mech.restore(ckpt, pod.nodes[1])
            view = resolve_view(restored.task, snapshot, {})
            return [
                (
                    v.signature(),
                    v.content_kind.tolist(),
                    v.content_val.tolist(),
                )
                for v in view.vmas
            ]

    assert child_view(False) == child_view(True)


# -- twin model: the array interner against a per-page reference -------------

#: Code alphabet of the twin test: chunks registered before the seal, the
#: chunk whose frame is poisoned, and codes no chunk holds yet.
_KNOWN = tuple(range(101, 107))
_POISONED = 100
_NEW = tuple(range(201, 205))


class _PerPageInterner:
    """The reference: one index probe, adopt and register per page, in slot
    order, through one-element calls."""

    def __init__(self, index, fabric):
        self.index = index
        self.fabric = fabric
        self.used = set()

    def _hit(self, code):
        frame = int(self.index.lookup(code)[0])
        if frame == MISS or frame in self.used:
            return None
        self.index.adopt(frame)
        self.used.add(frame)
        return frame

    def intern_leaf(self, codes):
        frames = [self._hit(int(code)) for code in codes]
        misses = [i for i, frame in enumerate(frames) if frame is None]
        if misses:
            fresh = self.fabric.alloc_frames(len(misses)).tolist()
            for slot, frame in zip(misses, fresh):
                frames[slot] = frame
                self.used.add(frame)
                self.index.register(int(codes[slot]), frame)
        return frames

    def adopt_only(self, codes):
        frames = [self._hit(int(code)) for code in codes]
        return [MISS if frame is None else frame for frame in frames]


def _twin_fabric():
    """A fabric whose index holds ``_KNOWN`` and ``_POISONED``, with freed
    frames on the allocator's free list and allocations recorded."""
    fabric = CxlFabric()
    index = fabric.chunk_index
    frames = fabric.alloc_frames(len(_KNOWN) + 5)
    for code, frame in zip((_POISONED,) + _KNOWN, frames.tolist()):
        index.register(code, frame)
    fabric.put_frames(frames[-4:])  # recycled by the seal's allocations
    fabric.device.frames.poison(frames[:1])
    fabric.allocated = []
    alloc = fabric.alloc_frames

    def recording_alloc(count):
        fresh = alloc(count)
        fabric.allocated.append(fresh.tolist())
        return fresh

    fabric.alloc_frames = recording_alloc
    return fabric


def _state(fabric):
    index = fabric.chunk_index
    return {
        "allocated": fabric.allocated,
        "sharers": list(index._sharers.items()),
        "frame_by_code": list(index._frame_by_code.items()),
        "refcounts": dict(fabric.device.frames.snapshot_refcounts()),
        "hits": index.stats.hits,
        "misses": index.stats.misses,
    }


_code = st.sampled_from((NO_CODE, _POISONED) + _KNOWN + _NEW)


@st.composite
def _seal_leaves(draw):
    """Leaves of one seal.  Two fixed leaves guarantee every case: a known
    code twice in one leaf, NO_CODE, the poisoned chunk, one new code
    twice, and a hit on a frame the first leaf already used."""
    leaves = draw(st.lists(st.lists(_code, min_size=1, max_size=12), max_size=5))
    first = [_KNOWN[0], _KNOWN[0], NO_CODE, _POISONED, _NEW[0], _NEW[0]]
    second = [_KNOWN[0], _KNOWN[1]]
    at = draw(st.integers(0, len(leaves)))
    leaves[at:at] = [draw(st.permutations(first)), second]
    return [np.asarray(leaf, dtype=np.int64) for leaf in leaves]


@settings(max_examples=40, **_SETTINGS)
@given(leaves=_seal_leaves())
def test_array_intern_leaf_matches_per_page_model(leaves):
    fabric, twin = _twin_fabric(), _twin_fabric()
    interner = ChunkInterner(fabric.chunk_index, fabric)
    model = _PerPageInterner(twin.chunk_index, twin)
    for codes in leaves:
        assert interner.intern_leaf(codes).tolist() == model.intern_leaf(codes)
    assert _state(fabric) == _state(twin)
    assert interner.shared_pages == twin.chunk_index.stats.hits


@settings(max_examples=40, **_SETTINGS)
@given(leaves=_seal_leaves())
def test_array_adopt_only_matches_per_page_model(leaves):
    codes = np.concatenate(leaves)
    fabric, twin = _twin_fabric(), _twin_fabric()
    interner = ChunkInterner(fabric.chunk_index, fabric)
    model = _PerPageInterner(twin.chunk_index, twin)
    assert interner.adopt_only(codes).tolist() == model.adopt_only(codes)
    assert _state(fabric) == _state(twin)
