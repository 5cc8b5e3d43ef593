"""Crash-recovery tests for plain NOVA: every persistence event."""

import pytest

from repro.failure import check_fs_invariants, sweep_crash_points
from repro.failure import image
from repro.nova import NovaFS, PAGE_SIZE
from repro.nova.entries import ENTRY_SIZE, WriteEntry, decode_entry
from repro.nova.inode import ROOT_INO, Inode
from repro.nova.journal import J_ADD, JournalRecord
from repro.nova.log import ENTRIES_PER_PAGE
from repro.pm import DRAM, PMDevice, SimClock


def fresh_fs(pages=512):
    dev = PMDevice(pages * PAGE_SIZE, model=DRAM, clock=SimClock())
    return NovaFS.mkfs(dev, max_inodes=64)


class TestBasicRecovery:
    def test_unclean_mount_recovers_committed_writes(self):
        fs = fresh_fs()
        ino = fs.create("/f")
        fs.write(ino, 0, b"committed" * 100)
        fs.dev.crash()
        fs.dev.recover_view()
        fs2 = NovaFS.mount(fs.dev)
        assert not fs2.last_recovery.clean
        ino2 = fs2.lookup("/f")
        assert fs2.read(ino2, 0, 900) == b"committed" * 100

    def test_recovery_report_counts(self):
        fs = fresh_fs()
        for i in range(5):
            ino = fs.create(f"/f{i}")
            fs.write(ino, 0, b"x" * PAGE_SIZE)
        fs.dev.crash()
        fs.dev.recover_view()
        fs2 = NovaFS.mount(fs.dev)
        rep = fs2.last_recovery
        assert rep.inodes_recovered == 6  # root + 5 files
        assert rep.entries_replayed >= 10  # 5 dentries + 5 writes
        assert rep.orphans_collected == 0
        assert rep.pages_in_use >= 6

    def test_write_atomicity_old_or_new(self):
        """Crash during an overwrite: the file reads all-old or all-new."""
        def build():
            fs = fresh_fs()
            ino = fs.create("/f")
            fs.write(ino, 0, b"A" * (2 * PAGE_SIZE))

            def scenario():
                fs.write(ino, 0, b"B" * (2 * PAGE_SIZE))

            return fs.dev, scenario

        def check(dev, point, phase):
            fs2 = NovaFS.mount(dev)
            ino2 = fs2.lookup("/f")
            got = fs2.read(ino2, 0, 2 * PAGE_SIZE)
            assert got in (b"A" * (2 * PAGE_SIZE), b"B" * (2 * PAGE_SIZE)), \
                "torn overwrite visible"
            check_fs_invariants(fs2)

        assert sweep_crash_points(build, check) > 0

    def test_create_atomicity(self):
        """Crash during create: file fully exists or not at all; no orphan
        inode survives recovery."""
        def build():
            fs = fresh_fs()

            def scenario():
                fs.create("/newfile")

            return fs.dev, scenario

        def check(dev, point, phase):
            fs2 = NovaFS.mount(dev)
            if fs2.exists("/newfile"):
                assert fs2.stat(fs2.lookup("/newfile")).size == 0
            check_fs_invariants(fs2)
            # Orphans were collected, so every valid inode is reachable.
            assert fs2.last_recovery.orphans_collected in (0, 1)

        assert sweep_crash_points(build, check) > 0

    def test_unlink_atomicity(self):
        def build():
            fs = fresh_fs()
            ino = fs.create("/doomed")
            fs.write(ino, 0, b"payload" * 1000)

            def scenario():
                fs.unlink("/doomed")

            return fs.dev, scenario

        def check(dev, point, phase):
            fs2 = NovaFS.mount(dev)
            if fs2.exists("/doomed"):
                ino2 = fs2.lookup("/doomed")
                assert fs2.read(ino2, 0, 7000) == b"payload" * 1000
            check_fs_invariants(fs2)

        assert sweep_crash_points(build, check) > 0

    @pytest.mark.parametrize("size", [PAGE_SIZE, PAGE_SIZE + 100],
                             ids=["page", "mid-page"])
    def test_truncate_atomicity(self, size):
        """Old size or new, and a file grown again after recovery reads
        zeros past the new EOF: a shrink commits its setattr alone, and
        the grow zeroes what a mid-page one cut."""
        full = 4 * PAGE_SIZE

        def build():
            fs = fresh_fs()
            ino = fs.create("/t")
            fs.write(ino, 0, b"z" * full)

            def scenario():
                fs.truncate(ino, size)

            return fs.dev, scenario

        def check(dev, point, phase):
            fs2 = NovaFS.mount(dev)
            ino2 = fs2.lookup("/t")
            got = fs2.stat(ino2).size
            assert got in (size, full)
            assert fs2.read(ino2, 0, got) == b"z" * got
            fs2.truncate(ino2, full)
            assert fs2.read(ino2, 0, full) == b"z" * got + bytes(full - got)
            check_fs_invariants(fs2)

        assert sweep_crash_points(build, check) > 0


class TestTornCrashes:
    def test_overwrite_survives_torn_crashes(self):
        """Word-granularity adversarial persistence: atomicity must hold
        because commits ride on single 8-byte tail stores."""
        def build():
            fs = fresh_fs()
            ino = fs.create("/f")
            fs.write(ino, 0, b"1" * PAGE_SIZE)

            def scenario():
                fs.write(ino, 0, b"2" * PAGE_SIZE)

            return fs.dev, scenario

        def check(dev, point, phase):
            fs2 = NovaFS.mount(dev)
            ino2 = fs2.lookup("/f")
            got = fs2.read(ino2, 0, PAGE_SIZE)
            assert got in (b"1" * PAGE_SIZE, b"2" * PAGE_SIZE)
            check_fs_invariants(fs2)

        assert sweep_crash_points(build, check, mode="torn") > 0


class TestStaleLogHead:
    """``InodeTable.release`` clears only the valid byte, so a torn
    whole-record write into a reused slot can persist the new valid word
    without the zeroed ``log_head`` (found by tests/fuzz/test_nested.py).
    The revived pointer may by now be another file's data page."""

    @pytest.mark.parametrize("stale_tail", [False, True])
    def test_orphan_pointing_into_a_live_file_frees_nothing(self,
                                                            stale_tail):
        fs = fresh_fs()
        victim = fs.create("/victim")
        # No 64 B slot of this page starts with a log-entry type byte.
        data = bytes(range(256)) * (PAGE_SIZE // 256)
        fs.write(victim, 0, data)
        page, = fs.caches[victim].index.referenced_pages()
        ghost = fs.itable.alloc()
        fs.itable.write(ghost, Inode(
            ino=ghost, valid=1, log_head=page,
            log_tail=page * PAGE_SIZE + 4 * 64 if stale_tail else 0))
        fs.dev.crash()
        fs.dev.recover_view()

        fs2 = NovaFS.mount(fs.dev)
        assert fs2.last_recovery.orphans_collected == 1
        assert fs2.itable.read(ghost).valid == 0
        assert fs2.read(fs2.lookup("/victim"), 0, PAGE_SIZE) == data
        check_fs_invariants(fs2)

    @pytest.mark.parametrize("chain", ["cyclic", "out_of_region"])
    def test_tail_rescan_of_an_untrusted_chain_is_bounded(self, chain):
        """A stale ``log_tail`` off the stale chain sends recovery to
        ``find_tail_by_scan``; every slot of the victim's page looks
        occupied, so the scan follows the page's first word — itself, or
        a page past the device — and must stop there, not raise."""
        fs = fresh_fs()
        victim = fs.create("/victim")
        fs.write(victim, 0, b"\xee" * PAGE_SIZE)
        page, = fs.caches[victim].index.referenced_pages()
        nxt = page if chain == "cyclic" else fs.geo.total_pages + 7
        fs.dev.write_atomic64(page * PAGE_SIZE, nxt, persist=True)
        data = fs.read(victim, 0, PAGE_SIZE)
        ghost = fs.itable.alloc()
        fs.itable.write(ghost, Inode(
            ino=ghost, valid=1, log_head=page,
            log_tail=(page + 1) * PAGE_SIZE + 4 * 64))
        fs.dev.crash()
        fs.dev.recover_view()

        fs2 = NovaFS.mount(fs.dev)
        assert fs2.last_recovery.extra["gc_tails_rebuilt"] == 1
        assert fs2.last_recovery.orphans_collected == 1
        assert fs2.itable.read(ghost).valid == 0
        assert fs2.read(fs2.lookup("/victim"), 0, PAGE_SIZE) == data
        check_fs_invariants(fs2)


class TestTailBoundsTheReplay:
    """The committed tail bounds what a mount decodes: a reused log page
    keeps its previous owner's entries past the tail, and a stale slot
    there that decodes as a valid write entry is never installed."""

    @staticmethod
    def stale_image(first_commit_lost):
        """``/f``'s log page holds two stale write entries of a dead
        incarnation (over ``/donor``'s data page) past its tail: right
        behind its first slot when the crash took the first commit, right
        behind two committed writes otherwise.  Crashed."""
        fs = fresh_fs()
        donor = fs.create("/donor")
        fs.write(donor, 0, b"d" * PAGE_SIZE)
        block, = fs.caches[donor].index.referenced_pages()
        f = fs.create("/f")
        if first_commit_lost:
            _head, tail = fs.log.ensure_log(
                f, 0, fs.log.reserve(0, 0, 0, cpu=0))
        else:
            fs.write(f, 0, b"a" * PAGE_SIZE)
            fs.write(f, PAGE_SIZE, b"b" * PAGE_SIZE)
            tail = fs.caches[f].tail
        assert tail % PAGE_SIZE not in (0, PAGE_SIZE - ENTRY_SIZE)
        stale = b"".join(WriteEntry(
            file_pgoff=pgoff, num_pages=1, block=block,
            size_after=(pgoff + 1) * PAGE_SIZE, ino=f).pack()
            for pgoff in (2, 3))
        fs.dev.write(tail, stale, persist=True)
        assert [type(decode_entry(stale[i:i + ENTRY_SIZE]))
                for i in (0, ENTRY_SIZE)] == [WriteEntry] * 2
        fs.dev.crash()
        fs.dev.recover_view()
        return fs.dev, f, tail

    def test_a_log_whose_first_commit_was_lost(self):
        """``log_head`` linked, ``log_tail`` 0: the log holds nothing."""
        dev, f, tail = self.stale_image(first_commit_lost=True)
        fs2 = NovaFS.mount(dev)
        cache = fs2.caches[f]
        assert cache.tail == tail
        assert (cache.entry_count, cache.inode.size) == (0, 0)
        assert list(cache.index.referenced_pages()) == []
        assert fs2.read(f, 0, 4 * PAGE_SIZE) == b""
        check_fs_invariants(fs2)

    def test_a_committed_tail_in_mid_page(self):
        dev, f, tail = self.stale_image(first_commit_lost=False)
        fs2 = NovaFS.mount(dev)
        cache = fs2.caches[f]
        assert cache.tail == tail
        assert (cache.entry_count, cache.inode.size) == (2, 2 * PAGE_SIZE)
        assert len(list(cache.index.referenced_pages())) == 2
        assert fs2.read(f, 0, 4 * PAGE_SIZE) \
            == b"a" * PAGE_SIZE + b"b" * PAGE_SIZE
        check_fs_invariants(fs2)


class TestOrphanChains:
    def test_a_redo_that_grows_an_orphan_directorys_log(self):
        """The orphan pass takes each orphan's chain from the replay,
        unless the journal redo linked a page to it since: an orphan
        directory whose full log page the redo appends to still gives
        that page back."""
        dev = PMDevice(512 * PAGE_SIZE, model=DRAM, clock=SimClock())
        fs = NovaFS.mkfs(dev, max_inodes=128)
        d = fs.mkdir("/d")
        kids = [fs.create(f"/d/f{i}") for i in range(ENTRIES_PER_PAGE)]
        cache = fs.caches[d]
        assert cache.tail % PAGE_SIZE == 0          # the page is full
        fs._append_dentry(ROOT_INO, "d", d, valid=0, cpu=0)
        fs.journal.stage([JournalRecord(op=J_ADD, parent_ino=d,
                                        name="moved", ino=kids[0])])
        fs.dev.crash()
        fs.dev.recover_view()

        fs2 = NovaFS.mount(fs.dev)
        rep = fs2.last_recovery
        assert rep.extra["journal_redone"] == 1
        assert rep.orphans_collected == 1 + len(kids)
        live = set()
        for c in fs2.caches.values():
            live.update(image.log(fs2.dev, fs2.geo).iter_pages(
                c.inode.log_head))
            live.update(c.index.referenced_pages())
        assert rep.pages_in_use == len(live)
        check_fs_invariants(fs2)


class TestMultiFileRecovery:
    def test_interleaved_workload_crash_sweep_subsampled(self):
        def build():
            fs = fresh_fs(pages=1024)

            def scenario():
                fs.mkdir("/d")
                for i in range(6):
                    ino = fs.create(f"/d/f{i}")
                    fs.write(ino, 0, bytes([i]) * (PAGE_SIZE + 17))
                fs.unlink("/d/f2")
                ino = fs.lookup("/d/f3")
                fs.write(ino, PAGE_SIZE, b"tail part")
                fs.truncate(fs.lookup("/d/f4"), 5)

            return fs.dev, scenario

        def check(dev, point, phase):
            fs2 = NovaFS.mount(dev)
            check_fs_invariants(fs2)
            # Any file that exists must read back self-consistent content.
            for i in range(6):
                path = f"/d/f{i}"
                if not fs2.exists(path):
                    continue
                ino = fs2.lookup(path)
                st = fs2.stat(ino)
                data = fs2.read(ino, 0, st.size)
                assert len(data) == st.size
                if st.size >= PAGE_SIZE and i != 3:
                    assert data[:PAGE_SIZE] == bytes([i]) * PAGE_SIZE

        assert sweep_crash_points(build, check, stride=5) > 5

    def test_remount_after_recovery_is_stable(self):
        """Recover, write more, recover again — state stays consistent."""
        fs = fresh_fs()
        ino = fs.create("/f")
        fs.write(ino, 0, b"first")
        fs.dev.crash()
        fs.dev.recover_view()
        fs2 = NovaFS.mount(fs.dev)
        ino2 = fs2.lookup("/f")
        fs2.write(ino2, 0, b"second!")
        fs2.dev.crash()
        fs2.dev.recover_view()
        fs3 = NovaFS.mount(fs2.dev)
        assert fs3.read(fs3.lookup("/f"), 0, 10) == b"second!"
        check_fs_invariants(fs3)
