"""Integration-level tests of NovaFS behaviour (no dedup)."""

import pytest

from repro.nova import NovaFS, PAGE_SIZE
from repro.nova.fs import (
    DirectoryNotEmpty,
    FileExists,
    FileNotFound,
    FSError,
    IsADirectory,
    NoSpace,
    NotADirectory,
)
from repro.nova.inode import ITYPE_DIR, ITYPE_FILE, ROOT_INO
from repro.pm import DRAM, PMDevice, SimClock


def make_fs(pages=512, **kw):
    dev = PMDevice(pages * PAGE_SIZE, model=DRAM, clock=SimClock())
    return NovaFS.mkfs(dev, max_inodes=kw.pop("max_inodes", 128), **kw)


class TestNamespace:
    def test_create_and_lookup(self):
        fs = make_fs()
        ino = fs.create("/a.txt")
        assert fs.lookup("/a.txt") == ino
        assert fs.exists("/a.txt")
        assert not fs.exists("/b.txt")

    def test_root_lookup(self):
        fs = make_fs()
        assert fs.lookup("/") == ROOT_INO

    def test_create_duplicate_rejected(self):
        fs = make_fs()
        fs.create("/a")
        with pytest.raises(FileExists):
            fs.create("/a")

    def test_nested_directories(self):
        fs = make_fs()
        fs.mkdir("/d1")
        fs.mkdir("/d1/d2")
        ino = fs.create("/d1/d2/leaf")
        assert fs.lookup("/d1/d2/leaf") == ino
        assert fs.listdir("/d1") == ["d2"]
        assert fs.listdir("/d1/d2") == ["leaf"]

    def test_lookup_through_file_rejected(self):
        fs = make_fs()
        fs.create("/f")
        with pytest.raises(NotADirectory):
            fs.create("/f/child")

    def test_missing_intermediate_dir(self):
        fs = make_fs()
        with pytest.raises(FileNotFound):
            fs.create("/nope/f")

    def test_unlink_removes_file(self):
        fs = make_fs()
        fs.create("/a")
        fs.unlink("/a")
        assert not fs.exists("/a")
        with pytest.raises(FileNotFound):
            fs.unlink("/a")

    def test_unlink_directory_rejected(self):
        fs = make_fs()
        fs.mkdir("/d")
        with pytest.raises(IsADirectory):
            fs.unlink("/d")

    def test_rmdir_empty_only(self):
        fs = make_fs()
        fs.mkdir("/d")
        fs.create("/d/f")
        with pytest.raises(DirectoryNotEmpty):
            fs.rmdir("/d")
        fs.unlink("/d/f")
        fs.rmdir("/d")
        assert not fs.exists("/d")

    def test_rmdir_on_file_rejected(self):
        fs = make_fs()
        fs.create("/f")
        with pytest.raises(NotADirectory):
            fs.rmdir("/f")

    def test_name_reuse_after_unlink(self):
        fs = make_fs()
        ino1 = fs.create("/a")
        fs.write(ino1, 0, b"one")
        fs.unlink("/a")
        ino2 = fs.create("/a")
        assert fs.read(ino2, 0, 10) == b""

    def test_unlink_frees_pages(self):
        fs = make_fs()
        fs.create("/warm")
        fs.unlink("/warm")  # leaves the root dir log allocated
        free0 = fs.allocator.free_pages
        ino = fs.create("/big")
        fs.write(ino, 0, b"z" * (8 * PAGE_SIZE))
        assert fs.allocator.free_pages < free0
        fs.unlink("/big")
        assert fs.allocator.free_pages == free0


class TestDataPath:
    def test_write_read_roundtrip(self):
        fs = make_fs()
        ino = fs.create("/f")
        data = bytes(range(256)) * 40
        assert fs.write(ino, 0, data) == len(data)
        assert fs.read(ino, 0, len(data)) == data

    def test_read_past_eof_short(self):
        fs = make_fs()
        ino = fs.create("/f")
        fs.write(ino, 0, b"hello")
        assert fs.read(ino, 0, 100) == b"hello"
        assert fs.read(ino, 5, 10) == b""
        assert fs.read(ino, 100, 10) == b""

    def test_sparse_hole_reads_zeros(self):
        fs = make_fs()
        ino = fs.create("/f")
        fs.write(ino, 3 * PAGE_SIZE, b"tail")
        assert fs.stat(ino).size == 3 * PAGE_SIZE + 4
        assert fs.read(ino, 0, PAGE_SIZE) == bytes(PAGE_SIZE)
        assert fs.read(ino, 3 * PAGE_SIZE, 4) == b"tail"

    def test_unaligned_overwrite_preserves_neighbours(self):
        fs = make_fs()
        ino = fs.create("/f")
        fs.write(ino, 0, b"A" * (2 * PAGE_SIZE))
        fs.write(ino, 100, b"B" * 50)
        got = fs.read(ino, 0, 2 * PAGE_SIZE)
        assert got[:100] == b"A" * 100
        assert got[100:150] == b"B" * 50
        assert got[150:] == b"A" * (2 * PAGE_SIZE - 150)

    def test_overwrite_spanning_pages_fig1(self):
        """The Fig. 1 scenario: overwrite across pages 2 and 3."""
        fs = make_fs()
        ino = fs.create("/f")
        fs.write(ino, 0, b"x" * (4 * PAGE_SIZE))
        fs.write(ino, 2 * PAGE_SIZE + 17, b"y" * PAGE_SIZE)
        got = fs.read(ino, 0, 4 * PAGE_SIZE)
        assert got[:2 * PAGE_SIZE + 17] == b"x" * (2 * PAGE_SIZE + 17)
        assert got[2 * PAGE_SIZE + 17:3 * PAGE_SIZE + 17] == b"y" * PAGE_SIZE
        assert got[3 * PAGE_SIZE + 17:] == b"x" * (PAGE_SIZE - 17)

    def test_cow_reclaims_fully_overwritten_pages(self):
        fs = make_fs()
        ino = fs.create("/f")
        fs.write(ino, 0, b"a" * (4 * PAGE_SIZE))
        used = fs.statfs()["used_pages"]
        fs.write(ino, 0, b"b" * (4 * PAGE_SIZE))
        # CoW allocates 4 new pages and frees the 4 old ones (+ maybe log).
        assert fs.statfs()["used_pages"] <= used + 1
        assert fs.obs.registry.counter("fs.pages_reclaimed_total").value >= 4

    def test_empty_write_is_noop(self):
        fs = make_fs()
        ino = fs.create("/f")
        assert fs.write(ino, 0, b"") == 0
        assert fs.stat(ino).size == 0

    def test_negative_offset_rejected(self):
        fs = make_fs()
        ino = fs.create("/f")
        with pytest.raises(ValueError):
            fs.write(ino, -1, b"x")
        with pytest.raises(ValueError):
            fs.read(ino, -1, 5)

    def test_write_to_directory_rejected(self):
        fs = make_fs()
        fs.mkdir("/d")
        ino = fs.lookup("/d")
        with pytest.raises(IsADirectory):
            fs.write(ino, 0, b"x")

    def test_write_unknown_ino_rejected(self):
        fs = make_fs()
        with pytest.raises(FileNotFound):
            fs.write(999, 0, b"x")

    def test_enospc(self):
        fs = make_fs(pages=64, max_inodes=16)
        ino = fs.create("/f")
        with pytest.raises(NoSpace):
            fs.write(ino, 0, b"x" * (200 * PAGE_SIZE))

    def test_many_small_files(self):
        fs = make_fs(pages=2048, max_inodes=512)
        for i in range(300):
            ino = fs.create(f"/f{i:03d}")
            fs.write(ino, 0, bytes([i % 256]) * 100)
        for i in range(300):
            ino = fs.lookup(f"/f{i:03d}")
            assert fs.read(ino, 0, 100) == bytes([i % 256]) * 100


class TestTruncate:
    def test_truncate_shrink_frees_pages(self):
        fs = make_fs()
        ino = fs.create("/f")
        fs.write(ino, 0, b"q" * (6 * PAGE_SIZE))
        used = fs.statfs()["used_pages"]
        fs.truncate(ino, PAGE_SIZE)
        assert fs.stat(ino).size == PAGE_SIZE
        assert fs.statfs()["used_pages"] < used
        assert fs.read(ino, 0, 10 * PAGE_SIZE) == b"q" * PAGE_SIZE

    def test_truncate_grow_extends_with_zeros(self):
        fs = make_fs()
        ino = fs.create("/f")
        fs.write(ino, 0, b"data")
        fs.truncate(ino, PAGE_SIZE + 5)
        got = fs.read(ino, 0, PAGE_SIZE + 5)
        assert got[:4] == b"data"
        assert got[4:] == bytes(PAGE_SIZE + 1)

    def test_truncate_partial_page_keeps_page(self):
        fs = make_fs()
        ino = fs.create("/f")
        fs.write(ino, 0, b"w" * (2 * PAGE_SIZE))
        fs.truncate(ino, PAGE_SIZE // 2)
        assert fs.read(ino, 0, PAGE_SIZE) == b"w" * (PAGE_SIZE // 2)


class TestStat:
    def test_stat_fields(self):
        fs = make_fs()
        ino = fs.create("/f")
        fs.write(ino, 0, b"12345")
        st = fs.stat(ino)
        assert st.ino == ino
        assert st.size == 5
        assert st.itype == ITYPE_FILE
        st_root = fs.stat(ROOT_INO)
        assert st_root.itype == ITYPE_DIR

    def test_statfs_accounting(self):
        fs = make_fs()
        s = fs.statfs()
        assert s["free_pages"] + s["used_pages"] == s["data_pages"]


class TestMountCycle:
    def test_unmounted_fs_rejects_ops(self):
        fs = make_fs()
        fs.unmount()
        with pytest.raises(FSError):
            fs.create("/x")

    def test_clean_remount_preserves_everything(self):
        fs = make_fs()
        fs.mkdir("/d")
        ino = fs.create("/d/f")
        data = b"persistent data " * 300
        fs.write(ino, 0, data)
        fs.unmount()
        fs2 = NovaFS.mount(fs.dev)
        ino2 = fs2.lookup("/d/f")
        assert fs2.read(ino2, 0, len(data)) == data
        assert fs2.stat(ino2).size == len(data)

    def test_log_gc_reclaims_dead_pages(self):
        fs = make_fs(pages=1024)
        ino = fs.create("/f")
        # Rewrite the same page enough to fill several log pages with
        # fully-superseded entries.
        for i in range(200):
            fs.write(ino, 0, bytes([i % 256]) * PAGE_SIZE)
        assert fs.obs.registry.counter("fs.log_pages_gced_total").value >= 1
        assert fs.read(ino, 0, PAGE_SIZE) == bytes([199 % 256]) * PAGE_SIZE
