"""Checkpoint records: capture, wire round trips, rebuild."""

from dataclasses import asdict

import pytest

from repro.serial.codec import decode, encode
from repro.serial.records import (
    FdRecord,
    NamespaceRecord,
    RegsRecord,
    TaskRecord,
    VmaRecord,
    pagemap_records,
    task_to_records,
    vma_records,
)


@pytest.fixture
def task(kernel):
    t = kernel.spawn_task("fn")
    kernel.map_anon_region(t, 100, populate=True)
    kernel.map_file_region(t, "/lib/a.so", 50, populate=True)
    t.fdtable.open("/var/log/fn.log")
    return t


class TestCapture:
    def test_task_record(self, task):
        record = task_to_records(task)
        assert record.comm == "fn"
        assert record.mm.mapped_pages == 150
        assert len(record.fds) == 1

    def test_wire_roundtrip(self, task):
        record = task_to_records(task)
        wire = decode(encode(record.to_wire()))
        restored = TaskRecord.from_wire(wire)
        assert restored.comm == record.comm
        assert restored.fds == record.fds
        assert restored.regs == record.regs

    def test_vma_to_wire_is_asdict_in_field_order(self, task):
        records = vma_records(task)
        assert {r.path is None for r in records} == {True, False}
        for record in records:
            wire = record.to_wire()
            assert wire == asdict(record)
            assert list(wire) == list(asdict(record))

    def test_regs_restore(self, task):
        task.regs.rip = 0xABCD
        record = RegsRecord.capture(task.regs)
        regs = record.restore_into()
        assert regs == task.regs
        assert regs is not task.regs

    def test_fd_reopen(self, task):
        entry = task.fdtable.entries()[0]
        record = FdRecord.capture(entry)
        reopened = record.reopen()
        assert reopened.path == entry.path
        assert reopened.fd == entry.fd

    def test_vma_records_rebuild(self, task):
        records = vma_records(task)
        assert len(records) == 2
        rebuilt = [r.rebuild() for r in records]
        assert {v.kind.value for v in rebuilt} == {"anon", "file_private"}
        wired = [VmaRecord.from_wire(decode(encode(r.to_wire()))) for r in records]
        assert wired == records


class TestPagemaps:
    def test_contiguous_run_collapses(self, task):
        records = pagemap_records(task)
        total = sum(r.npages for r in records)
        assert total == 150
        # Two VMAs with uniform flags => few runs, not 150.
        assert len(records) <= 6

    def test_runs_split_on_flag_change(self, kernel):
        t = kernel.spawn_task("x")
        vma = kernel.map_anon_region(t, 20, populate=True)
        # Dirty one page in the middle differently.
        from repro.tiering.hotness import reset_access_bits

        reset_access_bits(t.mm.pagetable, clear_dirty=True)
        kernel.access_range(t, vma.start_vpn + 10, 1, write=True)
        records = pagemap_records(t)
        assert len(records) == 3  # clean run, dirty page, clean run

    def test_empty_task(self, kernel):
        t = kernel.spawn_task("empty")
        assert pagemap_records(t) == []

    def test_namespace_record(self, task):
        record = NamespaceRecord.capture(task)
        wire = decode(encode(record.to_wire()))
        assert NamespaceRecord.from_wire(wire) == record
