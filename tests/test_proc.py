"""Process model: registers, fd tables, namespaces, cgroups."""

from dataclasses import replace

import pytest

from repro.os.proc.cgroup import Cgroup
from repro.os.proc.fdtable import FdTable, FileKind
from repro.os.proc.namespaces import MountNamespace, NamespaceSet, PidNamespace
from repro.os.proc.regs import GP_REGISTERS, RegisterFile


class TestRegisters:
    def test_copy_is_deep(self):
        regs = RegisterFile(rip=0x1000)
        copy = regs.copy()
        copy.gp["rax"] = 42
        assert regs.gp["rax"] == 0
        assert copy.rip == 0x1000

    def test_equality(self):
        assert RegisterFile(rip=1) == RegisterFile(rip=1)
        assert RegisterFile(rip=1) != RegisterFile(rip=2)

    def test_serialized_size_covers_state(self):
        regs = RegisterFile()
        assert regs.serialized_size() >= 8 * len(GP_REGISTERS) + regs.fpu_state_bytes

    def test_missing_register_rejected(self):
        with pytest.raises(ValueError):
            RegisterFile(gp={"rax": 0})


class TestFdTable:
    def test_open_allocates_increasing_fds(self):
        table = FdTable()
        a = table.open("/a")
        b = table.open("/b")
        assert b.fd == a.fd + 1
        assert a.fd >= FdTable.FIRST_USER_FD

    def test_install_at_recorded_fd(self):
        table = FdTable()
        entry = table.open("/a")
        restored = FdTable()
        restored.install(replace(entry, inode=None))
        (installed,) = restored
        assert (installed.fd, installed.path) == (entry.fd, "/a")

    def test_install_collision_rejected(self):
        table = FdTable()
        entry = table.open("/a")
        with pytest.raises(ValueError):
            table.install(entry)

    def test_copy_independent(self):
        table = FdTable()
        table.open("/a")
        dup = table.copy()
        dup.open("/b")
        assert len(table) == 1
        assert len(dup) == 2

    def test_kinds(self):
        table = FdTable()
        sock = table.open("/var/sock", kind=FileKind.SOCKET)
        assert sock.kind is FileKind.SOCKET


class TestNamespaces:
    def test_pid_allocation(self):
        ns = PidNamespace()
        assert ns.alloc_pid() == 1
        assert ns.alloc_pid() == 2

    def test_pid_snapshot_roundtrip(self):
        ns = PidNamespace(name="fn_pid")
        ns.alloc_pid()
        restored = PidNamespace.from_snapshot(ns.snapshot())
        assert restored.alloc_pid() == 2

    def test_mount_roundtrip(self):
        ns = MountNamespace(name="fn_mnt")
        ns.mount("/data", "tmpfs")
        restored = MountNamespace.from_snapshot(ns.snapshot())
        assert restored.mounts["/data"] == "tmpfs"

    def test_restore_inherits_network(self):
        source = NamespaceSet()
        target = NamespaceSet()
        restored = NamespaceSet.restore_into(source.checkpointable(), target)
        assert restored.net is target.net  # reconfigurable state (§4.2)
        assert restored.pid.name == source.pid.name

    def test_checkpointable_excludes_network(self):
        snap = NamespaceSet().checkpointable()
        assert set(snap) == {"pid", "mnt"}


class TestCgroup:
    def test_charge_within_limit(self):
        cg = Cgroup("fn", memory_limit_bytes=1000)
        assert cg.charge(800)
        assert cg.charged_bytes == 800

    def test_charge_over_limit_refused(self):
        cg = Cgroup("fn", memory_limit_bytes=1000)
        cg.charge(800)
        assert not cg.charge(300)
        assert cg.charged_bytes == 800

    def test_uncharge_floor(self):
        cg = Cgroup("fn")
        cg.charge(100)
        cg.uncharge(500)
        assert cg.charged_bytes == 0

    def test_hierarchy_propagates(self):
        parent = Cgroup("pod")
        child = Cgroup("fn", parent=parent)
        child.charge(100)
        assert parent.charged_bytes == 100
        child.uncharge(40)
        assert parent.charged_bytes == 60

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Cgroup("x").charge(-1)
