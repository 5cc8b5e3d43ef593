"""Tests for thorough log garbage collection."""

import pytest

from repro.dedup import DeNovaFS
from repro.failure import check_fs_invariants, sweep_crash_points
from repro.fuzz.diff import prefix_equivalence_check
from repro.fuzz.model import ModelFS
from repro.nova import NovaFS, PAGE_SIZE
from repro.nova.gc import thorough_gc
from repro.nova.log import ENTRIES_PER_PAGE
from repro.pm import DRAM, PMDevice, SimClock
from tests._ledger import Ledger


def make_fs(pages=2048, cls=NovaFS):
    dev = PMDevice(pages * PAGE_SIZE, model=DRAM, clock=SimClock())
    fs = cls.mkfs(dev, max_inodes=64)
    # Disable the auto-trigger so tests control GC explicitly.
    fs.THOROUGH_GC_MIN_ENTRIES = 10 ** 9
    return fs


def fragment(fs, ino, rounds=40):
    """Rewrite two alternating pages to scatter dead entries."""
    for i in range(rounds):
        fs.write(ino, (i % 2) * PAGE_SIZE, bytes([i % 251]) * PAGE_SIZE)


class TestThoroughGC:
    def test_compacts_fragmented_log(self):
        fs = make_fs()
        ino = fs.create("/f")
        fragment(fs, ino, rounds=3 * ENTRIES_PER_PAGE)
        pages_before = len(list(fs.log.iter_pages(fs.caches[ino].inode.log_head)))
        rep = thorough_gc(fs, ino)
        assert rep["pages_reclaimed"] >= pages_before - 2
        assert rep["live_entries"] <= 4  # 2 live writes + setattr
        # Content intact.
        assert fs.read(ino, 0, PAGE_SIZE)[0] in range(251)
        check_fs_invariants(fs)

    def test_contents_identical_after_gc(self):
        fs = make_fs()
        ino = fs.create("/f")
        fragment(fs, ino, rounds=200)
        before = fs.read(ino, 0, 2 * PAGE_SIZE)
        size_before = fs.stat(ino).size
        thorough_gc(fs, ino)
        assert fs.read(ino, 0, 2 * PAGE_SIZE) == before
        assert fs.stat(ino).size == size_before

    def test_gc_survives_remount(self):
        fs = make_fs()
        ino = fs.create("/f")
        fragment(fs, ino, rounds=200)
        before = fs.read(ino, 0, 2 * PAGE_SIZE)
        thorough_gc(fs, ino)
        fs.unmount()
        fs2 = NovaFS.mount(fs.dev)
        ino2 = fs2.lookup("/f")
        assert fs2.read(ino2, 0, 2 * PAGE_SIZE) == before
        check_fs_invariants(fs2)

    def test_gc_of_directory_log(self):
        fs = make_fs()
        # Churn the root directory log with create/unlink cycles.
        for i in range(150):
            fs.create(f"/tmp{i}")
            fs.unlink(f"/tmp{i}")
        fs.create("/keeper")
        rep = thorough_gc(fs, 1)  # ROOT_INO
        assert rep["pages_reclaimed"] >= 1
        assert fs.listdir("/") == ["keeper"]
        fs.dev.crash()
        fs.dev.recover_view()
        fs2 = NovaFS.mount(fs.dev)
        assert fs2.listdir("/") == ["keeper"]
        check_fs_invariants(fs2)

    def test_gc_noop_cases(self):
        fs = make_fs()
        ino = fs.create("/f")
        assert thorough_gc(fs, ino)["skipped"] == "no log"
        fs.write(ino, 0, b"x")
        assert "skipped" in thorough_gc(fs, ino)  # nothing to shrink

    def test_gc_preserves_truncated_size(self):
        """The appended setattr pins the size even when the last write
        entry's size_after is stale."""
        fs = make_fs()
        ino = fs.create("/f")
        fragment(fs, ino, rounds=150)
        fs.truncate(ino, 100)
        thorough_gc(fs, ino)
        fs.dev.crash()
        fs.dev.recover_view()
        fs2 = NovaFS.mount(fs.dev)
        assert fs2.stat(fs2.lookup("/f")).size == 100

    def test_auto_trigger(self):
        fs = make_fs()
        fs.THOROUGH_GC_MIN_ENTRIES = 2 * ENTRIES_PER_PAGE
        ino = fs.create("/f")
        fragment(fs, ino, rounds=6 * ENTRIES_PER_PAGE)
        cache = fs.caches[ino]
        pages = len(list(fs.log.iter_pages(cache.inode.log_head)))
        assert pages <= 3, "auto thorough GC never fired"
        assert fs.obs.registry.counter("fs.log_pages_gced_total").value > 0


def line_reads(led, pages) -> list[int]:
    """The cache lines of ``pages`` each device read covers, in order."""
    lines = []
    for r in led.select("read"):
        lines += [line for line in range(r.addr // 64, (r.end - 1) // 64 + 1)
                  if line * 64 // PAGE_SIZE in pages]
    return lines


class TestGCReads:
    """docs/CONSISTENCY.md §5: thorough GC walks the old chain once and
    builds the new index from what it wrote, never reading it back."""

    def test_no_new_chain_line_and_no_old_line_twice(self):
        fs = make_fs()
        ino = fs.create("/f")
        fragment(fs, ino, rounds=ENTRIES_PER_PAGE + 5)
        before = fs.read(ino, 0, 2 * PAGE_SIZE)
        old = list(fs.log.iter_pages(fs.caches[ino].inode.log_head))
        assert len(old) == 2
        with Ledger(fs.dev) as led:
            assert thorough_gc(fs, ino)["new_pages"] == 1
        new = list(fs.log.iter_pages(fs.caches[ino].inode.log_head))
        assert line_reads(led, new) == []
        lines = line_reads(led, old)
        assert len(lines) == len(set(lines))
        assert fs.read(ino, 0, 2 * PAGE_SIZE) == before
        check_fs_invariants(fs)

    def test_a_vetoed_pass_reads_each_header_once(self):
        fs = make_fs(cls=DeNovaFS)
        ino = fs.create("/f")
        fragment(fs, ino, rounds=ENTRIES_PER_PAGE + 5)
        old = list(fs.log.iter_pages(fs.caches[ino].inode.log_head))
        with Ledger(fs.dev) as led:
            assert thorough_gc(fs, ino)["skipped"] == "pending dedup entries"
        assert [(r.addr, r.n) for r in led.select("read")] \
            == [(page * PAGE_SIZE, 8) for page in old]


class TestGCWithDedup:
    def test_gc_vetoed_while_dedup_pending(self):
        fs = make_fs(cls=DeNovaFS)
        ino = fs.create("/f")
        fragment(fs, ino, rounds=150)
        rep = thorough_gc(fs, ino)
        assert rep.get("skipped") == "pending dedup entries"
        fs.daemon.drain()
        rep = thorough_gc(fs, ino)
        assert rep["pages_reclaimed"] >= 1
        check_fs_invariants(fs)

    def test_gc_preserves_shared_pages(self):
        fs = make_fs(cls=DeNovaFS)
        a = fs.create("/a")
        b = fs.create("/b")
        fs.write(a, 0, bytes([9]) * PAGE_SIZE)
        fs.write(b, 0, bytes([9]) * PAGE_SIZE)
        fragment(fs, a, rounds=150)
        fs.write(a, 0, bytes([9]) * PAGE_SIZE)  # share again
        fs.daemon.drain()
        thorough_gc(fs, a)
        assert fs.read(a, 0, PAGE_SIZE) == bytes([9]) * PAGE_SIZE
        assert fs.read(b, 0, PAGE_SIZE) == bytes([9]) * PAGE_SIZE
        check_fs_invariants(fs)


class TestGCCrashes:
    def test_gc_crash_sweep(self):
        """Crash at every persistence event of a thorough GC: the file
        must read identically before and after recovery."""
        content_box = {}

        def build():
            fs = make_fs(pages=1024)
            ino = fs.create("/f")
            fragment(fs, ino, rounds=150)
            content_box["data"] = fs.read(ino, 0, 2 * PAGE_SIZE)
            content_box["size"] = fs.stat(ino).size

            def scenario():
                thorough_gc(fs, ino)

            return fs.dev, scenario

        def check(dev, point, phase):
            fs2 = NovaFS.mount(dev)
            ino2 = fs2.lookup("/f")
            assert fs2.stat(ino2).size == content_box["size"]
            assert fs2.read(ino2, 0, 2 * PAGE_SIZE) == content_box["data"]
            check_fs_invariants(fs2)
            # The recovered filesystem keeps working.
            fs2.write(ino2, 0, b"post-recovery write")
            assert fs2.read(ino2, 0, 19) == b"post-recovery write"

        assert sweep_crash_points(build, check) > 3

    def test_gc_crash_sweep_torn(self):
        def build():
            fs = make_fs(pages=1024)
            ino = fs.create("/f")
            fragment(fs, ino, rounds=120)

            def scenario():
                thorough_gc(fs, ino)

            return fs.dev, scenario

        def check(dev, point, phase):
            fs2 = NovaFS.mount(dev)
            ino2 = fs2.lookup("/f")
            data = fs2.read(ino2, 0, 2 * PAGE_SIZE)
            assert len(data) == fs2.stat(ino2).size == 2 * PAGE_SIZE
            check_fs_invariants(fs2)

        assert sweep_crash_points(build, check, mode="torn") > 3

    def test_head_tail_window_rebuilds_tail(self):
        """Deterministically hit the head-updated/tail-stale window."""
        from repro.pm.device import CrashRequested

        fs = make_fs(pages=1024)
        ino = fs.create("/f")
        fragment(fs, ino, rounds=150)
        expected = fs.read(ino, 0, 2 * PAGE_SIZE)
        head_before = fs.caches[ino].inode.log_head

        # Crash on the persistence event after the head switch by
        # counting events: chain build (1), head update (2), tail (3).
        events = []
        def counter(n, dev):
            events.append(n)
            # chain build = 1 fence; head update = 2nd; crash before 3rd
            # (the tail update).
            if len(events) == 3:
                raise CrashRequested("pre-tail", n)

        fs.dev.hooks.on_persist = counter
        with pytest.raises(CrashRequested):
            thorough_gc(fs, ino)
        fs.dev.hooks.on_persist = None
        fs.dev.crash()
        fs.dev.recover_view()
        fs2 = NovaFS.mount(fs.dev)
        rep = fs2.last_recovery
        ino2 = fs2.lookup("/f")
        assert fs2.read(ino2, 0, 2 * PAGE_SIZE) == expected
        # Either the crash landed before the head switch (old log whole)
        # or the tail was rebuilt by the zero-scan.
        if fs2.caches[ino2].inode.log_head != head_before:
            assert rep.extra.get("gc_tails_rebuilt", 0) == 1
        check_fs_invariants(fs2)


class TestFastGC:
    """One operation that kills the last live entries of two middle log
    pages unlinks both in its one chain walk."""

    @staticmethod
    def two_nearly_dead_pages():
        """A 4-page log ``[head, m1, m2, tail]``: ``m1`` and ``m2`` each
        hold one live entry (pages 0 and 1 of ``/f``), the rest of their
        slots dead rewrites of page 2.  Returns the fs, its inode and the
        models before and after one 2-page write over pages 0 and 1."""
        fs = make_fs(pages=512)
        ino = fs.create("/f")
        cache = fs.caches[ino]
        models = [ModelFS(), ModelFS()]
        for m in models:
            m.create("/f")

        def write(pgoff, data, fill=False):
            fs.write(ino, pgoff * PAGE_SIZE, data)
            for m in models:
                m.write("/f", pgoff * PAGE_SIZE, data)
            while fill and cache.tail % PAGE_SIZE:
                write(2, bytes([cache.tail // 64 % 251]) * PAGE_SIZE)

        write(2, b"h" * PAGE_SIZE, fill=True)
        write(0, b"a" * PAGE_SIZE, fill=True)
        write(1, b"b" * PAGE_SIZE, fill=True)
        write(2, b"t" * PAGE_SIZE)
        models[1].write("/f", 0, b"k" * 2 * PAGE_SIZE)
        return fs, ino, models

    def test_one_walk_unlinks_both_pages(self, monkeypatch):
        fs, ino, (m0, m1) = self.two_nearly_dead_pages()
        cache = fs.caches[ino]
        head, p1, p2, tail = fs.log.iter_pages(cache.inode.log_head)
        assert [cache.invalid_entries.get(p) for p in (p1, p2)] \
            == [ENTRIES_PER_PAGE - 1] * 2
        walks = []
        real = NovaFS._maybe_gc_log
        monkeypatch.setattr(NovaFS, "_maybe_gc_log", lambda self, c: (
            walks.append(c), real(self, c)))
        fs.write(ino, 0, b"k" * 2 * PAGE_SIZE)
        assert len(walks) == 1
        assert list(fs.log.iter_pages(cache.inode.log_head)) == [head, tail]
        assert fs.allocator.is_free(p1) and fs.allocator.is_free(p2)
        assert fs.obs.registry.counter(
            "fs.log_pages_gced_total").value == 2
        check_fs_invariants(fs)
        prefix_equivalence_check(fs, m1, m1)

    def test_the_walk_reads_each_header_once(self):
        """The splice links to the successor the walk read: no header of
        the chain is read twice."""
        fs, ino, _models = self.two_nearly_dead_pages()
        chain = list(fs.log.iter_pages(fs.caches[ino].inode.log_head))
        with Ledger(fs.dev) as led:
            fs.write(ino, 0, b"k" * 2 * PAGE_SIZE)
        assert [r.addr // PAGE_SIZE for r in led.select("read")
                if r.addr % PAGE_SIZE == 0
                and r.addr // PAGE_SIZE in chain] == chain
        check_fs_invariants(fs)

    def test_crash_sweep_of_the_double_unlink(self):
        """Every persist event of that write, pre and post, discard and
        torn: the image recovers invariant-clean to the namespace before
        or after it."""
        models = {}

        def build():
            fs, ino, models["m"] = self.two_nearly_dead_pages()
            return fs.dev, lambda: fs.write(ino, 0, b"k" * 2 * PAGE_SIZE)

        def check(dev, point, phase):
            fs2 = NovaFS.mount(dev)
            check_fs_invariants(fs2)
            prefix_equivalence_check(fs2, *models["m"])

        assert sweep_crash_points(build, check,
                                  mode=("discard", "torn")) >= 4 * 4
