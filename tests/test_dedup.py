"""The dedup battery: chunk-index units, cross-checkpoint sharing, the
dedup-off regression guard, delta replication, and the seeded-mutation
smoke (satellites of the content-addressed checkpoint store)."""

import numpy as np
import pytest

from repro.check import CheckFailure, mutation
from repro.check.invariants import check_pod
from repro.check.oracle import DifferentialOracle
from repro.dedup import DEDUP, MISS, NO_CODE
from repro.dedup.selftest import run_smoke
from repro import experiments
from repro.experiments import density
from repro.experiments.common import make_pod, prepare_parent
from repro.rfork.registry import get_mechanism
from repro.serial.codec import Codec
from repro.sim.units import GIB


@pytest.fixture
def dedup_on():
    with DEDUP.force(True):
        yield DEDUP


@pytest.fixture
def index(fabric):
    return fabric.chunk_index


class TestChunkIndex:
    def test_register_lookup_roundtrip(self, fabric, index):
        frame = int(fabric.alloc_frames(1)[0])
        index.register(701, frame)
        assert index.lookup(701).tolist() == [frame]
        assert index.code_of(frame) == 701
        assert index.sharer_count(frame) == 1
        assert len(index) == 1

    def test_register_first_writer_wins(self, fabric, index):
        a, b = (int(f) for f in fabric.alloc_frames(2))
        index.register(701, a)
        index.register(701, b)
        assert index.lookup(701).tolist() == [a]
        assert index.code_of(b) == NO_CODE

    def test_no_code_never_registers(self, fabric, index):
        frame = int(fabric.alloc_frames(1)[0])
        index.register(NO_CODE, frame)
        assert len(index) == 0

    def test_adopt_bumps_sharers_and_takes_reference(self, fabric, index):
        frame = int(fabric.alloc_frames(1)[0])
        index.register(701, frame)
        probe = np.array([frame], dtype=np.int64)
        before = int(fabric.device.frames.refcounts(probe)[0])
        index.adopt(frame)
        assert index.sharer_count(frame) == 2
        assert int(fabric.device.frames.refcounts(probe)[0]) == before + 1

    def test_release_evicts_at_zero_sharers(self, fabric, index):
        frame = int(fabric.alloc_frames(1)[0])
        index.register(701, frame)
        index.adopt(frame)
        index.release(np.array([frame]))
        assert index.lookup(701).tolist() == [frame]  # one sharer left
        index.release(np.array([frame]))
        assert index.lookup(701).tolist() == [MISS]
        assert len(index) == 0

    def test_release_skips_unindexed_frames(self, fabric, index):
        frame = int(fabric.alloc_frames(1)[0])
        index.release(np.array([frame]))  # must not raise
        assert len(index) == 0

    def test_poisoned_chunk_reads_as_miss(self, fabric, index):
        frame = int(fabric.alloc_frames(1)[0])
        index.register(701, frame)
        fabric.device.frames.poison(np.array([frame], dtype=np.int64))
        assert index.lookup(701).tolist() == [MISS]
        # The registration itself survives for RAS to repair/repoint.
        assert index.code_of(frame) == 701

    def test_repoint_moves_code_and_sharers(self, fabric, index):
        old, new = (int(f) for f in fabric.alloc_frames(2))
        index.register(701, old)
        index.adopt(old)
        index.repoint(old, new)
        assert index.lookup(701).tolist() == [new]
        assert index.sharer_count(new) == 2
        assert index.sharer_count(old) == 0
        assert index.stats.repointed == 1

    def test_missing_codes_filters_resident_chunks(self, fabric, index):
        frame = int(fabric.alloc_frames(1)[0])
        index.register(701, frame)
        missing = index.missing_codes(
            np.array([701, 702, 702, NO_CODE], dtype=np.int64)
        )
        assert missing.tolist() == [702]

    def test_codes_for_matches_code_of(self, fabric, index):
        frames = fabric.alloc_frames(3)
        for code, frame in zip((701, 702, 703), frames):
            index.register(code, int(frame))
        probe = np.array([int(frames[2]), 999_999, int(frames[0])])
        assert index.codes_for(probe).tolist() == [
            index.code_of(int(frames[2])), NO_CODE, index.code_of(int(frames[0])),
        ]

    def test_file_codes_origin_free_private_codes_unique(self, pod):
        other = make_pod(dram_bytes=1 * GIB, cxl_bytes=1 * GIB)
        a = pod.fabric.chunk_index
        b = other.fabric.chunk_index
        offs = np.arange(4)
        # Pristine file content is globally identical: same code everywhere.
        assert a.file_codes("/lib/x.so", offs).tolist() == \
            b.file_codes("/lib/x.so", offs).tolist()
        # Private codes never collide, within or across indexes.
        mine = np.concatenate([a.private_codes(8), a.private_codes(8)])
        theirs = b.private_codes(16)
        assert len(set(mine.tolist())) == 16
        assert not set(mine.tolist()) & set(theirs.tolist())

    def test_audit_flags_sharer_mismatch(self, fabric, index):
        frame = int(fabric.alloc_frames(1)[0])
        index.register(701, frame)
        problems = index.audit(checkpoints=[])
        assert problems and "sharers" in problems[0]

    def test_wrong_frame_for_returns_a_different_chunk(self, fabric, index):
        a, b = (int(f) for f in fabric.alloc_frames(2))
        index.register(701, a)
        index.register(702, b)
        assert index.wrong_frame_for(701).tolist() == [b]
        assert index.wrong_frame_for(702).tolist() == [a]

    def test_lazy_property_vs_raw_slot(self, pod):
        # The checker reads the raw slot so a dedup-off pod never grows an
        # index as a side effect of being checked.
        assert getattr(pod.fabric, "_chunk_index", None) is None
        assert pod.fabric.chunk_index is pod.fabric.chunk_index
        assert getattr(pod.fabric, "_chunk_index", None) is not None


class TestCrossCheckpointSharing:
    def test_second_seal_shares_file_pages(self, dedup_on):
        pod = make_pod(node_count=2, dram_bytes=2 * GIB, cxl_bytes=16 * GIB)
        mech = get_mechanism("cxlfork", fabric=pod.fabric, cxlfs=pod.cxlfs)
        a = prepare_parent(pod, "float")
        b = prepare_parent(pod, "float", node=pod.nodes[1])
        ckpt_a, _ = mech.checkpoint(a.instance.task)
        ckpt_b, _ = mech.checkpoint(b.instance.task)
        assert ckpt_a.shared_chunk_pages == 0  # first seal seeds the index
        assert ckpt_b.shared_chunk_pages > 0
        assert ckpt_b.resident_cxl_bytes < ckpt_b.cxl_bytes
        audit = check_pod(
            pod.fabric, pod.nodes, cxlfs=pod.cxlfs,
            checkpoints=[ckpt_a, ckpt_b],
        )
        assert audit.clean, audit.describe()

    def test_recheckpoint_of_restored_child_shares_resident_frames(
        self, dedup_on
    ):
        pod = make_pod(node_count=2, dram_bytes=2 * GIB, cxl_bytes=16 * GIB)
        mech = get_mechanism("cxlfork", fabric=pod.fabric, cxlfs=pod.cxlfs)
        parent = prepare_parent(pod, "float")
        ckpt, _ = mech.checkpoint(parent.instance.task)
        restored = mech.restore(ckpt, pod.nodes[1])
        child = parent.workload.placed_plan_for(parent.instance, restored.task)
        parent.workload.invoke(child)
        reckpt, _ = mech.checkpoint(child.task)
        # Everything the child never wrote resolves to the backing image's
        # chunks (seal rules 1/2); only its written pages cost new frames.
        assert reckpt.shared_chunk_pages > reckpt.present_pages // 2
        audit = check_pod(
            pod.fabric, pod.nodes, cxlfs=pod.cxlfs,
            checkpoints=[ckpt, reckpt],
        )
        assert audit.clean, audit.describe()

    def test_criu_recheckpoint_adopts_chunks(self, dedup_on):
        pod = make_pod(node_count=2, dram_bytes=2 * GIB, cxl_bytes=16 * GIB)
        cxlfork = get_mechanism("cxlfork", fabric=pod.fabric, cxlfs=pod.cxlfs)
        criu = get_mechanism("criu-cxl", fabric=pod.fabric, cxlfs=pod.cxlfs)
        parent = prepare_parent(pod, "float")
        ckpt, _ = cxlfork.checkpoint(parent.instance.task)
        restored = cxlfork.restore(ckpt, pod.nodes[1])
        child = parent.workload.placed_plan_for(parent.instance, restored.task)
        parent.workload.invoke(child)
        criu_ckpt, _ = criu.checkpoint(child.task)
        assert criu_ckpt.dedup_pages > 0
        assert criu_ckpt.stored_data_bytes == criu_ckpt.data_bytes - \
            criu_ckpt.dedup_pages * 4096
        assert criu_ckpt.resident_cxl_bytes < criu_ckpt.cxl_bytes
        audit = check_pod(
            pod.fabric, pod.nodes, cxlfs=pod.cxlfs,
            checkpoints=[ckpt, criu_ckpt],
        )
        assert audit.clean, audit.describe()

    def test_zero_pages_elided_and_restore_faults_demand_zero(self, dedup_on):
        pod = make_pod(node_count=2, dram_bytes=1 * GIB, cxl_bytes=4 * GIB)
        kernel = pod.source.kernel
        parent = kernel.spawn_task("zeroes")
        kernel.map_anon_region(parent, 64, label="sparse", populate=False)
        kernel.map_anon_region(parent, 16, label="dense", populate=True)
        mech = get_mechanism("cxlfork", fabric=pod.fabric, cxlfs=pod.cxlfs)
        oracle = DifferentialOracle(parent)
        ckpt, _ = mech.checkpoint(parent)
        assert ckpt.zero_elided_pages >= 64
        restored = mech.restore(ckpt, pod.nodes[1])
        oracle.verify_child(restored.task)  # elided pages read back as zero

    def test_delete_drains_the_index(self, dedup_on):
        pod = make_pod(node_count=2, dram_bytes=2 * GIB, cxl_bytes=16 * GIB)
        mech = get_mechanism("cxlfork", fabric=pod.fabric, cxlfs=pod.cxlfs)
        a = prepare_parent(pod, "float")
        b = prepare_parent(pod, "float", node=pod.nodes[1])
        ckpt_a, _ = mech.checkpoint(a.instance.task)
        ckpt_b, _ = mech.checkpoint(b.instance.task)
        assert len(pod.fabric.chunk_index) > 0
        ckpt_b.delete()
        ckpt_a.delete()
        assert len(pod.fabric.chunk_index) == 0
        audit = check_pod(pod.fabric, pod.nodes, cxlfs=pod.cxlfs, checkpoints=[])
        assert audit.clean, audit.describe()


class TestDedupOffRegression:
    """Satellite 4: with the flag off (the default) nothing changes."""

    def test_default_off_seal_has_no_dedup_state(self, pod, parent):
        from repro.rfork.cxlfork import CxlFork

        _, instance = parent
        ckpt, _ = CxlFork().checkpoint(instance.task)
        assert ckpt.chunk_codes is None
        assert ckpt.shared_chunk_pages == 0
        assert ckpt.resident_cxl_bytes == ckpt.cxl_bytes
        assert getattr(pod.fabric, "_chunk_index", None) is None

    def test_dedup_off_wire_carries_no_codes(self, parent):
        from repro.cluster.replication import wire_image
        from repro.rfork.cxlfork import CxlFork

        _, instance = parent
        ckpt, _ = CxlFork().checkpoint(instance.task)
        wire = wire_image(ckpt)
        assert "zero_elided" not in wire
        assert all("codes" not in entry for entry in wire["leaves"])

    def test_cross_rows_dedup_off_share_nothing(self):
        rows = experiments.run("density", density.Config.quick())["rows"]
        off = [r for r in rows if not r.dedup]
        on = [r for r in rows if r.dedup]
        assert off and on
        assert all(r.shared_pages == 0 for r in off)
        assert all(r.full_ship_mb == r.delta_ship_mb for r in off)
        assert all(r.audit_clean for r in rows)
        # And the tentpole's acceptance: dedup strictly improves density.
        assert on[-1].instances_per_gb > off[-1].instances_per_gb


class TestDeltaReplication:
    def _sealed_pair(self):
        pod = make_pod(node_count=2, dram_bytes=2 * GIB, cxl_bytes=16 * GIB)
        mech = get_mechanism("cxlfork", fabric=pod.fabric, cxlfs=pod.cxlfs)
        a = prepare_parent(pod, "float")
        b = prepare_parent(pod, "float", node=pod.nodes[1])
        ckpt_a, _ = mech.checkpoint(a.instance.task)
        ckpt_b, _ = mech.checkpoint(b.instance.task)
        return pod, ckpt_a, ckpt_b

    def test_second_ship_moves_fewer_bytes(self, dedup_on):
        from repro.experiments.density import _DstPod, _ship_costs

        _, ckpt_a, ckpt_b = self._sealed_pair()
        dst = _DstPod(
            make_pod(node_count=2, dram_bytes=1 * GIB, cxl_bytes=16 * GIB),
            name="dst",
        )
        codec = Codec()
        full_a, delta_a, _ = _ship_costs(ckpt_a, dst, codec)
        # Empty destination: the delta protocol still ships every chunk
        # (plus the hash listing), so it cannot beat a full ship.
        assert delta_a >= full_a - ckpt_a.cxl_bytes  # sanity: same order
        full_b, delta_b, _ = _ship_costs(ckpt_b, dst, codec)
        # The first replica seeded dst's index; B's shared pages now stay home.
        assert delta_b < full_b
        assert delta_b < delta_a

    def test_dedup_replica_reencodes_bit_identical(self, dedup_on):
        from repro.cluster.replication import encode_image, materialize

        _, ckpt_a, ckpt_b = self._sealed_pair()
        dst = make_pod(node_count=2, dram_bytes=1 * GIB, cxl_bytes=16 * GIB)

        class _Dst:
            name = "dst"
            fabric = dst.fabric
            cxlfs = dst.cxlfs

            def next_image_id(self, comm):
                return f"{comm}-replica"

        codec = Codec()
        for ckpt in (ckpt_a, ckpt_b):
            blob = encode_image(ckpt, codec=codec)
            replica, _ = materialize(codec.decode(blob), _Dst(), codec=codec)
            assert encode_image(replica, codec=codec) == blob

    def test_replicator_delta_stats(self, dedup_on):
        from repro.cluster import build_federation
        from repro.porter.autoscaler import PorterConfig

        router = build_federation(
            2, porter_config=PorterConfig(mechanism="cxlfork")
        )
        router.register_function("float")
        src, dst = router.membership.pods()
        src.porter.prewarm_and_checkpoint("float")
        # The destination prewarms the same function: its index already
        # holds the shared file chunks, so the ship's missing-set shrinks.
        dst.porter.prewarm_and_checkpoint("float")
        router.replicator.ship("float", src, dst)
        while router.queue.peek_time() is not None:
            router.queue.step()
        delta = router.replicator.delta
        assert delta.delta_ships == 1
        assert delta.chunks_deduped > 0
        assert delta.bytes_saved > 0
        assert dst.fabric.chunk_index.stats.wire_chunks_deduped > 0

    def test_replicator_dedup_off_records_no_delta(self):
        from repro.cluster import build_federation
        from repro.porter.autoscaler import PorterConfig

        router = build_federation(
            2, porter_config=PorterConfig(mechanism="cxlfork")
        )
        router.register_function("float")
        src, dst = router.membership.pods()
        src.porter.prewarm_and_checkpoint("float")
        router.replicator.ship("float", src, dst)
        while router.queue.peek_time() is not None:
            router.queue.step()
        assert router.replicator.delta.delta_ships == 0
        assert router.replicator.delta.bytes_saved == 0


class TestMutationSmoke:
    """Satellite 3: the seeded alias-wrong-chunk bug is caught."""

    def test_listed_in_registry(self):
        assert "alias-wrong-chunk" in mutation.KNOWN

    def test_oracle_catches_the_wrong_chunk(self, dedup_on):
        pod = make_pod(node_count=2, dram_bytes=2 * GIB, cxl_bytes=16 * GIB)
        mech = get_mechanism("cxlfork", fabric=pod.fabric, cxlfs=pod.cxlfs)
        prepare_a = prepare_parent(pod, "float")
        prepare_b = prepare_parent(pod, "float", node=pod.nodes[1])
        with mutation.ALIAS_WRONG_CHUNK.force(True):
            mech.checkpoint(prepare_a.instance.task)
            ckpt_b, _ = mech.checkpoint(prepare_b.instance.task)
        oracle = DifferentialOracle(prepare_b.instance.task)
        restored = mech.restore(ckpt_b, pod.nodes[0])
        with pytest.raises(CheckFailure) as info:
            oracle.verify_child(restored.task)
        assert "wrong-chunk" in str(info.value)

    def test_selftest_cli_armed_and_clean(self, monkeypatch):
        """One selftest run covers the clean seal and the armed one; it
        fails when the oracle's wrong-chunk check is blind."""
        assert run_smoke("float", verbose=False) == 0
        assert not mutation.ALIAS_WRONG_CHUNK.active()
        monkeypatch.setattr(DifferentialOracle, "verify_child", lambda self, task: None)
        assert run_smoke("float", verbose=False) == 1

    def test_disarmed_seal_is_clean(self, dedup_on):
        assert run_smoke("float", verbose=False) == 0
