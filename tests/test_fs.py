"""File systems: shared root FS and the in-CXL-memory FS."""

import pytest

from repro.os.fs.cxlfs import CxlFileSystem
from repro.os.fs.vfs import SharedRootFs


class TestSharedRootFs:
    def test_root_exists(self):
        fs = SharedRootFs()
        root = fs.lookup("/")
        assert root.is_dir and root.ino == 1

    def test_create_makes_parents(self):
        fs = SharedRootFs()
        inode = fs.create("/opt/runtime/python/lib.so", size_bytes=100)
        assert inode.size_bytes == 100
        assert fs.lookup("/opt/runtime/python").is_dir

    def test_duplicate_create_rejected(self):
        fs = SharedRootFs()
        fs.create("/a")
        with pytest.raises(FileExistsError):
            fs.create("/a")

    def test_lookup_missing(self):
        with pytest.raises(FileNotFoundError):
            SharedRootFs().lookup("/missing")

    def test_relative_path_rejected(self):
        with pytest.raises(ValueError):
            SharedRootFs().lookup("relative/path")

    def test_ensure_idempotent(self):
        fs = SharedRootFs()
        a = fs.ensure("/lib/x.so", size_bytes=10)
        b = fs.ensure("/lib/x.so", size_bytes=999)
        assert a is b
        assert b.size_bytes == 10

    def test_normalization(self):
        fs = SharedRootFs()
        fs.create("/a/b")
        assert fs.exists("/a//b")
        assert fs.exists("/a/./b")


class TestCxlFileSystem:
    def test_write_allocates_cxl_frames(self, fabric):
        cxlfs = CxlFileSystem(fabric)
        before = fabric.used_bytes
        cxlfs.write_file("/criu/pages.img", 1 << 20)
        assert fabric.used_bytes - before == 1 << 20

    def test_stat(self, fabric):
        cxlfs = CxlFileSystem(fabric)
        cxlfs.write_file("/x", 5000)
        file = cxlfs.stat("/x")
        assert file.size_bytes == 5000
        assert file.npages == 2

    def test_stat_missing(self, fabric):
        with pytest.raises(FileNotFoundError):
            CxlFileSystem(fabric).stat("/missing")

    def test_overwrite_replaces(self, fabric):
        cxlfs = CxlFileSystem(fabric)
        cxlfs.write_file("/x", 1 << 20)
        cxlfs.write_file("/x", 4096)
        assert cxlfs.stat("/x").size_bytes == 4096
        assert fabric.used_bytes == 4096

    def test_unlink_frees(self, fabric):
        cxlfs = CxlFileSystem(fabric)
        cxlfs.write_file("/x", 1 << 20)
        cxlfs.unlink("/x")
        assert fabric.used_bytes == 0
        assert len(cxlfs) == 0

    def test_listdir_prefix(self, fabric):
        cxlfs = CxlFileSystem(fabric)
        cxlfs.write_file("/criu/a/task.img", 10)
        cxlfs.write_file("/criu/b/task.img", 10)
        assert cxlfs.listdir("/criu/a") == ["/criu/a/task.img"]

    def test_negative_size_rejected(self, fabric):
        with pytest.raises(ValueError):
            CxlFileSystem(fabric).write_file("/x", -1)
