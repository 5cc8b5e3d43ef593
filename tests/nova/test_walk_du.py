"""Tests for the tree-walk and dedup-aware usage utilities."""

import pytest

from repro.dedup import DeNovaFS
from repro.nova import NovaFS, PAGE_SIZE
from repro.nova.fs import NotADirectory
from repro.nova.inode import ITYPE_DIR, ITYPE_SYMLINK
from repro.pm import DRAM, PMDevice, SimClock


def make_fs(cls=NovaFS, pages=1024):
    dev = PMDevice(pages * PAGE_SIZE, model=DRAM, clock=SimClock())
    return cls.mkfs(dev, max_inodes=128)


def build_tree(fs):
    fs.mkdir("/a")
    fs.mkdir("/a/b")
    fs.mkdir("/c")
    for path, size in (("/top", 100), ("/a/f1", PAGE_SIZE),
                       ("/a/b/f2", 2 * PAGE_SIZE), ("/c/f3", 10)):
        ino = fs.create(path)
        fs.write(ino, 0, b"\x42" * size)
    fs.symlink("/top", "/a/link")


class TestWalk:
    def test_walk_visits_everything_in_order(self):
        fs = make_fs()
        build_tree(fs)
        visited = list(fs.walk("/"))
        dirpaths = [p for p, _, c in visited if c.inode.itype == ITYPE_DIR]
        assert dirpaths == ["/a", "/a/b", "/c"]
        assert [p for p, _, _ in visited] == [
            "/a", "/a/b", "/a/b/f2", "/a/f1", "/a/link", "/c", "/c/f3",
            "/top"]
        link = dict((p, c) for p, _, c in visited)["/a/link"]
        # symlink listed, not followed
        assert link.inode.itype == ITYPE_SYMLINK
        assert [i for _, i, _ in visited] == [
            fs.lookup(p, follow=False) for p, _, _ in visited]

    def test_walk_subtree(self):
        fs = make_fs()
        build_tree(fs)
        assert [p for p, _, c in fs.walk("/a")
                if c.inode.itype == ITYPE_DIR] == ["/a/b"]

    def test_walk_non_directory(self):
        fs = make_fs()
        fs.create("/f")
        with pytest.raises(NotADirectory):
            list(fs.walk("/f"))


class TestDu:
    def test_du_counts_logical_and_physical(self):
        fs = make_fs()
        build_tree(fs)
        rep = fs.du("/")
        assert rep["files"] == 4
        assert rep["dirs"] == 3
        assert rep["logical_bytes"] == 100 + PAGE_SIZE + 2 * PAGE_SIZE + 10
        assert rep["unique_pages"] == 5

    def test_du_is_dedup_aware(self):
        fs = make_fs(cls=DeNovaFS, pages=2048)
        a = fs.create("/a")
        b = fs.create("/b")
        fs.write(a, 0, b"\x07" * (3 * PAGE_SIZE))
        fs.write(b, 0, b"\x07" * (3 * PAGE_SIZE))
        fs.daemon.drain()
        rep = fs.du("/")
        assert rep["logical_bytes"] == 6 * PAGE_SIZE
        assert rep["unique_pages"] == 1  # identical pages, shared
        assert rep["physical_bytes"] == PAGE_SIZE

    def test_du_subtree_shared_with_outside(self):
        """Pages shared across the subtree boundary still count once
        inside (du reports what the subtree pins)."""
        fs = make_fs(cls=DeNovaFS, pages=2048)
        fs.mkdir("/d")
        x = fs.create("/outside")
        y = fs.create("/d/inside")
        fs.write(x, 0, b"\x09" * PAGE_SIZE)
        fs.write(y, 0, b"\x09" * PAGE_SIZE)
        fs.daemon.drain()
        rep = fs.du("/d")
        assert rep["files"] == 1
        assert rep["unique_pages"] == 1

    def test_du_counts_a_hard_linked_file_once(self):
        """du(1) counts an inode once however many names it has, so
        ``logical_pages`` agrees with the FACT-side count."""
        fs = make_fs(cls=DeNovaFS, pages=2048)
        f = fs.create("/f")
        fs.write(f, 0, b"\x05" * (2 * PAGE_SIZE))
        fs.daemon.drain()
        fs.link("/f", "/g")
        rep = fs.du("/")
        assert rep["logical_pages"] == fs.space_stats()["logical_pages"]
        assert rep["files"] == 1
        assert rep["saved_bytes"] == PAGE_SIZE
