"""Tests for rename, hard links, and the redo journal."""

import pytest

from repro.dedup import DeNovaFS
from repro.failure import check_fs_invariants, sweep_crash_points
from repro.nova import NovaFS, PAGE_SIZE
from repro.nova.fs import FileExists, FileNotFound, FSError, IsADirectory
from repro.nova.journal import J_ADD, J_REMOVE, Journal, JournalRecord
from repro.pm import DRAM, PMDevice, SimClock


def make_fs(pages=512, cls=NovaFS):
    dev = PMDevice(pages * PAGE_SIZE, model=DRAM, clock=SimClock())
    return cls.mkfs(dev, max_inodes=64)


class TestRename:
    def test_same_directory_rename(self):
        fs = make_fs()
        ino = fs.create("/old")
        fs.write(ino, 0, b"payload")
        fs.rename("/old", "/new")
        assert not fs.exists("/old")
        assert fs.lookup("/new") == ino
        assert fs.read(ino, 0, 7) == b"payload"

    def test_cross_directory_rename(self):
        fs = make_fs()
        fs.mkdir("/a")
        fs.mkdir("/b")
        ino = fs.create("/a/f")
        fs.write(ino, 0, b"moved")
        fs.rename("/a/f", "/b/g")
        assert fs.listdir("/a") == []
        assert fs.lookup("/b/g") == ino
        assert fs.read(ino, 0, 5) == b"moved"
        assert not fs.journal.committed

    def test_rename_directory(self):
        fs = make_fs()
        fs.mkdir("/src")
        fs.create("/src/child")
        fs.mkdir("/dst")
        fs.rename("/src", "/dst/moved")
        assert fs.lookup("/dst/moved/child")

    def test_rename_into_own_subtree_rejected(self):
        fs = make_fs()
        fs.mkdir("/d")
        fs.mkdir("/d/sub")
        with pytest.raises(FSError, match="subtree"):
            fs.rename("/d", "/d/sub/evil")
        with pytest.raises(FSError, match="subtree"):
            fs.rename("/d", "/d/self")

    def test_rename_missing_source(self):
        fs = make_fs()
        with pytest.raises(FileNotFound):
            fs.rename("/ghost", "/x")

    def test_rename_existing_destination_rejected(self):
        fs = make_fs()
        fs.create("/a")
        fs.create("/b")
        with pytest.raises(FileExists):
            fs.rename("/a", "/b")

    def test_rename_survives_clean_remount(self):
        fs = make_fs()
        fs.mkdir("/d1")
        fs.mkdir("/d2")
        ino = fs.create("/d1/f")
        fs.write(ino, 0, b"x" * 5000)
        fs.rename("/d1/f", "/d2/f2")
        fs.unmount()
        fs2 = NovaFS.mount(fs.dev)
        assert fs2.read(fs2.lookup("/d2/f2"), 0, 5000) == b"x" * 5000
        assert not fs2.exists("/d1/f")

    def test_same_dir_rename_is_single_commit(self):
        """Both dentry records ride one tail update — count commits."""
        fs = make_fs()
        fs.create("/a")
        root = fs.caches[1]
        count_before = root.entry_count
        fs.rename("/a", "/b")
        assert root.entry_count == count_before + 2


class TestRenameCrashes:
    def test_cross_dir_rename_crash_sweep(self):
        """At every persistence point the file exists under exactly the
        old or the new name — never both, never neither."""
        def build():
            fs = make_fs()
            fs.mkdir("/a")
            fs.mkdir("/b")
            ino = fs.create("/a/f")
            fs.write(ino, 0, b"precious")

            def scenario():
                fs.rename("/a/f", "/b/g")

            return fs.dev, scenario

        def check(dev, point, phase):
            fs2 = NovaFS.mount(dev)
            old = fs2.exists("/a/f")
            new = fs2.exists("/b/g")
            assert old != new, f"rename atomicity broken: old={old} new={new}"
            path = "/a/f" if old else "/b/g"
            assert fs2.read(fs2.lookup(path), 0, 8) == b"precious"
            check_fs_invariants(fs2)

        assert sweep_crash_points(build, check) > 3

    def test_cross_dir_rename_crash_sweep_torn(self):
        def build():
            fs = make_fs()
            fs.mkdir("/a")
            fs.mkdir("/b")
            fs.create("/a/f")

            def scenario():
                fs.rename("/a/f", "/b/g")

            return fs.dev, scenario

        def check(dev, point, phase):
            fs2 = NovaFS.mount(dev)
            assert fs2.exists("/a/f") != fs2.exists("/b/g")
            check_fs_invariants(fs2)

        assert sweep_crash_points(build, check, mode="torn") > 3

    def test_same_dir_rename_crash_sweep(self):
        def build():
            fs = make_fs()
            fs.create("/old")

            def scenario():
                fs.rename("/old", "/new")

            return fs.dev, scenario

        def check(dev, point, phase):
            fs2 = NovaFS.mount(dev)
            assert fs2.exists("/old") != fs2.exists("/new")
            check_fs_invariants(fs2)

        assert sweep_crash_points(build, check) >= 1

    def test_rename_crash_sweep_on_denova(self):
        """Rename atomicity also holds with the dedup layer active."""
        def build():
            fs = make_fs(pages=1024, cls=DeNovaFS)
            fs.mkdir("/a")
            fs.mkdir("/b")
            ino = fs.create("/a/f")
            fs.write(ino, 0, bytes([7]) * PAGE_SIZE)
            fs.daemon.drain()

            def scenario():
                fs.rename("/a/f", "/b/g")

            return fs.dev, scenario

        def check(dev, point, phase):
            fs2 = DeNovaFS.mount(dev)
            assert fs2.exists("/a/f") != fs2.exists("/b/g")
            path = "/a/f" if fs2.exists("/a/f") else "/b/g"
            assert fs2.read(fs2.lookup(path), 0, PAGE_SIZE) \
                == bytes([7]) * PAGE_SIZE
            check_fs_invariants(fs2)

        assert sweep_crash_points(build, check) > 3


class TestHardLinks:
    def test_link_shares_content(self):
        fs = make_fs()
        ino = fs.create("/orig")
        fs.write(ino, 0, b"shared body")
        fs.link("/orig", "/alias")
        assert fs.lookup("/alias") == ino
        assert fs.stat(ino).links == 2

    def test_writes_visible_through_both_names(self):
        fs = make_fs()
        ino = fs.create("/a")
        fs.link("/a", "/b")
        fs.write(fs.lookup("/b"), 0, b"via b")
        assert fs.read(fs.lookup("/a"), 0, 5) == b"via b"

    def test_unlink_one_name_keeps_body(self):
        fs = make_fs()
        ino = fs.create("/a")
        fs.write(ino, 0, b"keep me")
        fs.link("/a", "/b")
        fs.unlink("/a")
        assert not fs.exists("/a")
        assert fs.read(fs.lookup("/b"), 0, 7) == b"keep me"
        assert fs.stat(ino).links == 1

    def test_last_unlink_frees_body(self):
        fs = make_fs()
        fs.create("/warm")
        fs.unlink("/warm")
        free0 = fs.allocator.free_pages
        ino = fs.create("/a")
        fs.write(ino, 0, b"z" * (4 * PAGE_SIZE))
        fs.link("/a", "/b")
        fs.unlink("/a")
        fs.unlink("/b")
        assert fs.allocator.free_pages == free0

    def test_link_to_directory_rejected(self):
        fs = make_fs()
        fs.mkdir("/d")
        with pytest.raises(IsADirectory):
            fs.link("/d", "/d2")

    def test_link_existing_name_rejected(self):
        fs = make_fs()
        fs.create("/a")
        fs.create("/b")
        with pytest.raises(FileExists):
            fs.link("/a", "/b")

    def test_links_recovered_after_crash(self):
        fs = make_fs()
        ino = fs.create("/a")
        fs.write(ino, 0, b"x")
        fs.link("/a", "/b")
        fs.link("/a", "/c")
        fs.dev.crash()
        fs.dev.recover_view()
        fs2 = NovaFS.mount(fs.dev)
        ino2 = fs2.lookup("/a")
        assert fs2.stat(ino2).links == 3
        fs2.unlink("/a")
        fs2.unlink("/c")
        assert fs2.read(fs2.lookup("/b"), 0, 1) == b"x"
        check_fs_invariants(fs2)

    def test_hardlinks_with_dedup(self):
        fs = make_fs(pages=1024, cls=DeNovaFS)
        a = fs.create("/a")
        fs.write(a, 0, bytes([5]) * PAGE_SIZE)
        fs.link("/a", "/b")
        fs.daemon.drain()
        fs.unlink("/a")
        assert fs.read(fs.lookup("/b"), 0, PAGE_SIZE) == bytes([5]) * PAGE_SIZE
        check_fs_invariants(fs)


class TestJournalUnit:
    def make(self):
        from repro.nova.layout import Geometry, Superblock

        dev = PMDevice(256 * PAGE_SIZE, model=DRAM, clock=SimClock())
        geo = Geometry.compute(256, max_inodes=32)
        Superblock.format(dev, geo)
        return Journal(dev, geo), dev

    def test_stage_records_roundtrip(self):
        j, dev = self.make()
        recs = [JournalRecord(op=J_ADD, parent_ino=1, name="x", ino=5),
                JournalRecord(op=J_REMOVE, parent_ino=2, name="y", ino=5)]
        j.stage(recs)
        assert j.committed
        assert j.records() == recs
        j.clear()
        assert not j.committed
        assert j.records() == []

    def test_uncommitted_records_invisible(self):
        j, dev = self.make()
        assert j.records() == []

    def test_commit_survives_crash_apply_does_not_need_to(self):
        from repro.nova.layout import Superblock

        j, dev = self.make()
        j.stage([JournalRecord(op=J_ADD, parent_ino=1, name="f", ino=3)])
        dev.crash()
        dev.recover_view()
        j2 = Journal(dev, Superblock.load(dev).geo)
        assert j2.committed
        assert j2.records()[0].name == "f"

    def test_crash_before_commit_leaves_journal_empty(self):
        j, dev = self.make()
        # Stage manually but crash before the flag store persists: write
        # records, skip commit.
        rec = JournalRecord(op=J_ADD, parent_ino=1, name="f", ino=3)
        dev.write(j.base + 64, rec.pack())
        dev.persist(j.base + 64, 64)
        dev.crash()
        dev.recover_view()
        assert not j.committed

    def test_double_stage_rejected(self):
        j, dev = self.make()
        j.stage([JournalRecord(op=J_ADD, parent_ino=1, name="a", ino=2)])
        with pytest.raises(RuntimeError):
            j.stage([JournalRecord(op=J_ADD, parent_ino=1, name="b", ino=3)])

    def test_empty_and_oversize_rejected(self):
        j, dev = self.make()
        with pytest.raises(ValueError):
            j.stage([])
        too_many = [JournalRecord(op=J_ADD, parent_ino=1, name=f"n{i}",
                                  ino=i + 2) for i in range(100)]
        with pytest.raises(ValueError):
            j.stage(too_many)

    def test_mkfs_in_place_clears_a_committed_transaction(self):
        """mkfs over an image whose journal holds a committed rename:
        the new filesystem's first cross-directory rename succeeds, and
        an unclean mount after it redoes nothing."""
        fs = make_fs()
        fs.mkdir("/a")
        b = fs.mkdir("/b")
        f = fs.create("/a/f")
        fs.journal.stage([JournalRecord(op=J_ADD, parent_ino=b, name="f",
                                        ino=f)])
        fs.dev.crash()
        fs.dev.recover_view()
        fs = NovaFS.mkfs(fs.dev, max_inodes=64)
        fs.mkdir("/a")
        fs.mkdir("/b")
        fs.create("/a/g")
        fs.rename("/a/g", "/b/g")
        assert fs.listdir("/b") == ["g"] and not fs.journal.committed
        fs.dev.crash()
        fs.dev.recover_view()
        fs = NovaFS.mount(fs.dev)
        assert fs.last_recovery.extra["journal_redone"] == 0
        assert fs.listdir("/a") == [] and fs.listdir("/b") == ["g"]
        check_fs_invariants(fs)
