"""Tests for reflink copies and snapshots."""

import pytest

from repro.dedup import DeNovaFS
from repro.failure import check_fs_invariants, sweep_crash_points
from repro.nova import PAGE_SIZE
from repro.nova.fs import FileExists, FileNotFound, FSError, ReadOnlyFile
from repro.pm import DRAM, PMDevice, SimClock
from repro.workloads import DataGenerator


def make_fs(pages=4096):
    dev = PMDevice(pages * PAGE_SIZE, model=DRAM, clock=SimClock())
    return DeNovaFS.mkfs(dev, max_inodes=256)


def page_of(tag):
    return bytes([tag & 0xFF]) * PAGE_SIZE


class TestReflink:
    def test_reflink_shares_all_pages(self):
        fs = make_fs()
        src = fs.create("/src")
        data = page_of(1) + page_of(2) + page_of(3)
        fs.write(src, 0, data)
        fs.daemon.drain()
        used_before = fs.statfs()["used_pages"]
        dst = fs.reflink("/src", "/dst")
        # Metadata only: at most a log page + nothing else.
        assert fs.statfs()["used_pages"] <= used_before + 1
        assert fs.read(dst, 0, len(data)) == data
        st = fs.space_stats()
        assert st["logical_pages"] == 6
        assert st["physical_pages"] == 3
        check_fs_invariants(fs)

    def test_reflink_of_pending_source(self):
        """Source not yet deduplicated: reflink fingerprints it eagerly
        and the later daemon pass adds nothing."""
        fs = make_fs()
        src = fs.create("/src")
        fs.write(src, 0, page_of(5) * 2)
        assert len(fs.dwq) == 1  # source dedup still queued
        dst = fs.reflink("/src", "/dst")
        assert fs.read(dst, 0, 2 * PAGE_SIZE) == page_of(5) * 2
        check_fs_invariants(fs)
        fs.daemon.drain()  # the queued source node self-hits
        check_fs_invariants(fs)
        # Overwrite the source: the shared page must survive for dst.
        fs.write(src, 0, page_of(9) * 2)
        assert fs.read(dst, 0, 2 * PAGE_SIZE) == page_of(5) * 2
        check_fs_invariants(fs)

    def test_cow_isolation_after_reflink(self):
        fs = make_fs()
        src = fs.create("/src")
        fs.write(src, 0, page_of(1) * 4)
        fs.daemon.drain()
        dst = fs.reflink("/src", "/dst")
        fs.write(dst, PAGE_SIZE, page_of(7))
        assert fs.read(src, PAGE_SIZE, PAGE_SIZE) == page_of(1)
        assert fs.read(dst, PAGE_SIZE, PAGE_SIZE) == page_of(7)
        check_fs_invariants(fs)

    def test_reflink_sparse_file(self):
        fs = make_fs()
        src = fs.create("/sparse")
        fs.write(src, 5 * PAGE_SIZE, b"tail")
        fs.daemon.drain()
        dst = fs.reflink("/sparse", "/copy")
        assert fs.stat(dst).size == 5 * PAGE_SIZE + 4
        assert fs.read(dst, 0, PAGE_SIZE) == bytes(PAGE_SIZE)
        assert fs.read(dst, 5 * PAGE_SIZE, 4) == b"tail"

    def test_reflink_chain(self):
        fs = make_fs()
        src = fs.create("/a")
        fs.write(src, 0, page_of(3) * 2)
        fs.daemon.drain()
        fs.reflink("/a", "/b")
        fs.reflink("/b", "/c")
        fs.reflink("/c", "/d")
        assert fs.space_stats()["physical_pages"] == 1  # all dup pages
        fs.unlink("/a")
        fs.unlink("/b")
        fs.unlink("/c")
        assert fs.read(fs.lookup("/d"), 0, 2 * PAGE_SIZE) == page_of(3) * 2
        check_fs_invariants(fs)

    def test_reflink_errors(self):
        fs = make_fs()
        fs.create("/f")
        fs.mkdir("/d")
        with pytest.raises(FileExists):
            fs.reflink("/f", "/d")
        with pytest.raises(FileNotFound):
            fs.reflink("/ghost", "/x")
        with pytest.raises(Exception):
            fs.reflink("/d", "/dircopy")  # directories don't reflink

    def test_reflink_survives_crash(self):
        def build():
            fs = make_fs(pages=2048)
            src = fs.create("/src")
            fs.write(src, 0, page_of(1) + page_of(2))
            fs.daemon.drain()

            def scenario():
                fs.reflink("/src", "/dst")

            return fs.dev, scenario

        def check(dev, point, phase):
            fs2 = DeNovaFS.mount(dev)
            data = page_of(1) + page_of(2)
            assert fs2.read(fs2.lookup("/src"), 0, len(data)) == data
            if fs2.exists("/dst"):
                assert fs2.read(fs2.lookup("/dst"), 0, len(data)) == data
            check_fs_invariants(fs2)
            fs2.daemon.drain()
            # Whatever survived, overwriting src never harms dst.
            fs2.write(fs2.lookup("/src"), 0, page_of(9) * 2)
            if fs2.exists("/dst"):
                assert fs2.read(fs2.lookup("/dst"), 0, len(data)) == data
            check_fs_invariants(fs2)

        assert sweep_crash_points(build, check) > 3


class TestSnapshots:
    def populate(self, fs):
        gen = DataGenerator(alpha=0.3, seed=30, dup_pool_size=4)
        fs.mkdir("/work")
        for i in range(5):
            ino = fs.create(f"/work/f{i}")
            fs.write(ino, 0, gen.file_data(2 * PAGE_SIZE))
        fs.daemon.drain()

    def test_snapshot_is_point_in_time(self):
        fs = make_fs()
        self.populate(fs)
        before = fs.read(fs.lookup("/work/f0"), 0, 2 * PAGE_SIZE)
        rep = fs.snapshot("monday")
        assert rep["files"] == 5
        fs.write(fs.lookup("/work/f0"), 0, page_of(200) * 2)
        snap = fs.read(fs.lookup("/.snapshots/monday/work/f0"), 0,
                       2 * PAGE_SIZE)
        assert snap == before
        check_fs_invariants(fs)

    def test_snapshot_files_immutable(self):
        fs = make_fs()
        self.populate(fs)
        fs.snapshot("frozen")
        ino = fs.lookup("/.snapshots/frozen/work/f1")
        with pytest.raises(ReadOnlyFile):
            fs.write(ino, 0, b"nope")
        with pytest.raises(ReadOnlyFile):
            fs.truncate(ino, 0)

    def test_snapshot_costs_metadata_only(self):
        fs = make_fs()
        self.populate(fs)
        phys_before = fs.space_stats()["physical_pages"]
        used_before = fs.statfs()["used_pages"]
        fs.snapshot("cheap")
        assert fs.space_stats()["physical_pages"] == phys_before
        # Log pages for 5 reflinked files + 2 dirs, no data pages.
        assert fs.statfs()["used_pages"] - used_before <= 8

    def test_snapshot_list_and_delete(self):
        fs = make_fs()
        self.populate(fs)
        fs.snapshot("a")
        fs.snapshot("b")
        assert fs.list_snapshots() == ["a", "b"]
        used_with = fs.statfs()["used_pages"]
        removed = fs.delete_snapshot("a")
        assert removed == 5
        assert fs.list_snapshots() == ["b"]
        assert fs.statfs()["used_pages"] < used_with
        # Live data untouched.
        assert fs.stat(fs.lookup("/work/f3")).size == 2 * PAGE_SIZE
        check_fs_invariants(fs)

    def test_snapshots_survive_remount_and_crash(self):
        fs = make_fs()
        self.populate(fs)
        before = fs.read(fs.lookup("/work/f2"), 0, 2 * PAGE_SIZE)
        fs.snapshot("keep")
        fs.write(fs.lookup("/work/f2"), 0, page_of(99) * 2)
        fs.dev.crash()
        fs.dev.recover_view()
        fs2 = DeNovaFS.mount(fs.dev)
        snap = fs2.read(fs2.lookup("/.snapshots/keep/work/f2"), 0,
                        2 * PAGE_SIZE)
        assert snap == before
        ino = fs2.lookup("/.snapshots/keep/work/f2")
        with pytest.raises(ReadOnlyFile):
            fs2.write(ino, 0, b"still frozen")  # flag recovered from PM
        check_fs_invariants(fs2)

    def test_bad_snapshot_names(self):
        fs = make_fs()
        with pytest.raises(ValueError):
            fs.snapshot("a/b")
        with pytest.raises(ValueError):
            fs.snapshot("")
        fs.snapshot("x")
        with pytest.raises(FileExists):
            fs.snapshot("x")
        with pytest.raises(FileNotFound):
            fs.delete_snapshot("ghost")

    @pytest.mark.parametrize("name", ["", ".", ".."])
    def test_snapshot_name_is_one_real_component(self, name):
        fs = make_fs()
        with pytest.raises(ValueError):
            fs.snapshot(name)
        assert fs.list_snapshots() == []

    @pytest.mark.parametrize("name", ["", ".", "..", "s1/d", "/"])
    def test_delete_snapshot_refuses_what_names_no_snapshot(self, name):
        """``""`` once removed every snapshot and ``s1/d`` a directory
        inside the immutable ``s1``."""
        fs = make_fs()
        self.populate(fs)
        fs.snapshot("s1")
        fs.snapshot("s2")
        with pytest.raises(ValueError):
            fs.delete_snapshot(name)
        assert fs.list_snapshots() == ["s1", "s2"]
        assert fs.listdir("/.snapshots/s1/work") == \
            [f"f{i}" for i in range(5)]
        check_fs_invariants(fs)

    def test_nested_snapshot_excluded(self):
        """Snapshots never snapshot the snapshot directory."""
        fs = make_fs()
        self.populate(fs)
        fs.snapshot("one")
        rep = fs.snapshot("two")
        assert rep["files"] == 5  # not 10
        assert not fs.exists("/.snapshots/two/.snapshots")

    def test_deep_verify_with_snapshots(self):
        fs = make_fs()
        self.populate(fs)
        fs.snapshot("audit")
        assert fs.deep_verify()["clean"]


class TestSparseReflinkCrash:
    def test_fully_sparse_reflink_size_survives_crash(self):
        """Regression (found by the stateful oracle): reflinking a file
        with no mapped pages must still persist the destination's size."""
        fs = make_fs()
        src = fs.create("/src")
        fs.truncate(src, 1)        # size without any data pages
        fs.reflink("/src", "/dst")
        fs.dev.crash()
        fs.dev.recover_view()
        fs2 = DeNovaFS.mount(fs.dev)
        ino = fs2.lookup("/dst")
        assert fs2.stat(ino).size == 1
        assert fs2.read(ino, 0, 2) == b"\x00"
        check_fs_invariants(fs2)

    def test_sparse_tail_reflink(self):
        fs = make_fs()
        src = fs.create("/src")
        fs.write(src, 0, b"head")
        fs.truncate(src, 3 * PAGE_SIZE + 7)  # grow a sparse tail
        fs.daemon.drain()
        fs.reflink("/src", "/dst")
        fs.dev.crash()
        fs.dev.recover_view()
        fs2 = DeNovaFS.mount(fs.dev)
        ino = fs2.lookup("/dst")
        assert fs2.stat(ino).size == 3 * PAGE_SIZE + 7
        assert fs2.read(ino, 0, 4) == b"head"
        check_fs_invariants(fs2)
