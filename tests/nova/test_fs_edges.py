"""Edge-case tests for the filesystem surface."""

from unittest import mock

import pytest

from repro.dedup import DeNovaFS, InlineDedupFS
from repro.failure import check_fs_invariants
from repro.nova import NovaFS, PAGE_SIZE
from repro.nova.entries import MAX_NAME
from repro.nova.fs import FileExists, FileNotFound, FSError, NoSpace
from repro.nova.log import ENTRIES_PER_PAGE
from repro.pm import DRAM, PMDevice, SimClock
from repro.pm.allocator import AllocError


def make_fs(pages=512, max_inodes=32, cls=NovaFS):
    dev = PMDevice(pages * PAGE_SIZE, model=DRAM, clock=SimClock())
    return cls.mkfs(dev, max_inodes=max_inodes)


class TestPaths:
    def test_empty_path_rejected(self):
        fs = make_fs()
        with pytest.raises(FSError):
            fs.create("")
        with pytest.raises(FSError):
            fs.create("///")

    def test_redundant_slashes_normalized(self):
        fs = make_fs()
        ino = fs.create("//a")
        assert fs.lookup("/a") == ino
        fs.mkdir("/d")
        ino2 = fs.create("/d//b")
        assert fs.lookup("//d///b") == ino2

    def test_max_name_length(self):
        fs = make_fs()
        fs.create("/" + "n" * MAX_NAME)
        with pytest.raises(ValueError):
            fs.create("/" + "n" * (MAX_NAME + 1))

    def test_deep_nesting(self):
        fs = make_fs(pages=2048, max_inodes=128)
        path = ""
        for depth in range(30):
            path += f"/d{depth}"
            fs.mkdir(path)
        leaf = path + "/leaf"
        ino = fs.create(leaf)
        fs.write(ino, 0, b"deep")
        fs.unmount()
        fs2 = NovaFS.mount(fs.dev)
        assert fs2.read(fs2.lookup(leaf), 0, 4) == b"deep"

    def test_many_names_in_one_directory(self):
        fs = make_fs(pages=2048, max_inodes=600)
        for i in range(500):
            fs.create(f"/file_{i:04d}")
        assert len(fs.listdir("/")) == 500
        fs.unmount()
        fs2 = NovaFS.mount(fs.dev)
        assert len(fs2.listdir("/")) == 500


class TestInodeExhaustion:
    def test_create_fails_cleanly_when_table_full(self):
        fs = make_fs(max_inodes=8)
        created = 0
        with pytest.raises(NoSpace):
            for i in range(20):
                fs.create(f"/f{i}")
                created += 1
        assert created == 7  # 8 minus the root
        # Freeing one slot makes creation possible again.
        fs.unlink("/f0")
        fs.create("/reborn")
        check_fs_invariants(fs)

    def test_exhaustion_then_recovery(self):
        fs = make_fs(max_inodes=8)
        for i in range(7):
            fs.create(f"/f{i}")
        fs.dev.crash()
        fs.dev.recover_view()
        fs2 = NovaFS.mount(fs.dev)
        with pytest.raises(NoSpace):
            fs2.create("/overflow")
        fs2.unlink("/f3")
        fs2.create("/ok")


def fill(fs):
    """Write one page at a time until the device refuses: no page left."""
    big = fs.create("/big")
    with pytest.raises(NoSpace):
        for page in range(fs.geo.total_pages):
            fs.write(big, page * PAGE_SIZE, b"x" * PAGE_SIZE)
    assert fs.allocator.free_pages == 0


def dir_with(fs, path, entries):
    """A directory holding ``entries`` dentries: none means no log page
    yet, ``ENTRIES_PER_PAGE`` puts its tail on a page boundary."""
    fs.mkdir(path)
    for i in range(entries):
        fs.create(f"{path}/x{i}")


def names(fs, *dirs):
    return {d: fs.listdir(d) for d in dirs}


class TestLogPagesRunOut:
    """An operation that needs a log page the device no longer has is
    refused before it changes anything: before a journal commits, before
    an inode slot is taken."""

    @staticmethod
    def refused_rename(src_entries, dst_entries, spare):
        """``/a/f0 -> /b/f0`` on a device with ``spare`` pages left."""
        fs = make_fs(pages=160, max_inodes=160)
        dir_with(fs, "/a", src_entries)
        fs.create("/a/f0")
        fs.create("/a/f1")
        dir_with(fs, "/b", dst_entries)
        spare_ino = fs.create("/spare")
        fs.write(spare_ino, 0, b"s" * (1 + spare) * PAGE_SIZE)
        fill(fs)
        fs.truncate(spare_ino, PAGE_SIZE)
        assert fs.allocator.free_pages == spare
        before = names(fs, "/a", "/b")
        with pytest.raises(NoSpace):
            fs.rename("/a/f0", "/b/f0")
        assert not fs.journal.committed
        assert names(fs, "/a", "/b") == before
        check_fs_invariants(fs)
        return fs, before

    @pytest.mark.parametrize("src_entries, dst_entries, spare", [
        (0, 0, 0),                      # the target has no log page yet
        (0, ENTRIES_PER_PAGE, 0),       # the target's tail on a boundary
        (ENTRIES_PER_PAGE - 2, 1, 0),   # the source's tail on a boundary
        # One page left: the target takes it (its first, or its next),
        # the source is refused, and the page stays the target's.
        (ENTRIES_PER_PAGE - 2, 0, 1),
        (ENTRIES_PER_PAGE - 2, ENTRIES_PER_PAGE, 1),
    ])
    def test_cross_directory_rename_refused_before_the_commit(
            self, src_entries, dst_entries, spare):
        fs, before = self.refused_rename(src_entries, dst_entries, spare)
        fs.dev.crash()
        fs.dev.recover_view()
        fs = NovaFS.mount(fs.dev)
        assert not fs.journal.committed
        assert names(fs, "/a", "/b") == before

        fs, before = self.refused_rename(src_entries, dst_entries, spare)
        fs.unmount()
        fs = NovaFS.mount(fs.dev)
        assert names(fs, "/a", "/b") == before
        fs.unlink("/big")
        fs.rename("/a/f0", "/b/f0")
        fs.rename("/a/f1", "/b/f1")
        fs.dev.crash()
        fs.dev.recover_view()
        fs = NovaFS.mount(fs.dev)
        after = names(fs, "/a", "/b")
        assert after["/a"] == sorted(set(before["/a"]) - {"f0", "f1"})
        assert after["/b"] == sorted(before["/b"] + ["f0", "f1"])
        check_fs_invariants(fs)

    @pytest.mark.parametrize("op, parent_entries", [
        ("create", 0), ("create", ENTRIES_PER_PAGE),
        ("mkdir", 0), ("mkdir", ENTRIES_PER_PAGE),
        ("symlink", 0), ("symlink", 1), ("symlink", ENTRIES_PER_PAGE),
    ])
    def test_refused_create_leaves_no_inode(self, op, parent_entries):
        fs = make_fs(pages=160, max_inodes=160)
        dir_with(fs, "/d", parent_entries)
        fill(fs)
        geo = fs.geo
        table = (geo.inode_table_page * PAGE_SIZE,
                 (geo.journal_page - geo.inode_table_page) * PAGE_SIZE)
        media, free_slots = fs.dev.read_silent(*table), list(fs.itable._free)
        cached = sorted(ino for ino, _cache in fs.caches.raw_items())
        make = {"create": lambda p: fs.create(p),
                "mkdir": lambda p: fs.mkdir(p),
                "symlink": lambda p: fs.symlink("/big", p)}[op]
        for k in range(3):
            with pytest.raises(NoSpace):
                make(f"/d/new{k}")
            assert fs.dev.read_silent(*table) == media
            assert fs.itable._free == free_slots
            assert sorted(ino for ino, _c in fs.caches.raw_items()) == cached
        check_fs_invariants(fs)
        fs.unlink("/big")
        ino = make("/d/new0")
        assert fs.lookup("/d/new0", follow=False) == ino
        check_fs_invariants(fs)


class TestMidPageShrink:
    """A shrink commits its setattr first, so it needs no data page and no
    quota room (truncate is one of the two ways to free space); its
    partial page is rewritten zero past EOF after that, and a grow zeroes
    what is left when that rewrite never happened."""

    DATA = bytes(range(256)) * 64          # 4 pages, no zero byte run

    @staticmethod
    def past_eof(fs, ino):
        """The media bytes of page 1 past a 4 196 B EOF."""
        block = fs.caches[ino].index.block_of(1)
        return fs.dev.read_silent(block * PAGE_SIZE + 100, PAGE_SIZE - 100)

    def grown(self, fs, ino):
        fs.truncate(ino, 4 * PAGE_SIZE)
        want = self.DATA[:PAGE_SIZE + 100] + bytes(3 * PAGE_SIZE - 100)
        assert fs.read(ino, 0, 4 * PAGE_SIZE) == want
        check_fs_invariants(fs)

    @pytest.mark.parametrize("cls", [NovaFS, DeNovaFS],
                             ids=lambda c: c.__name__)
    def test_on_a_full_device(self, cls):
        fs = make_fs(pages=160, cls=cls)
        ino = fs.create("/f")
        fs.write(ino, 0, self.DATA)
        fill(fs)
        fs.truncate(ino, PAGE_SIZE + 100)
        assert fs.stat(ino).size == PAGE_SIZE + 100
        assert fs.allocator.free_pages == 2
        assert self.past_eof(fs, ino) == bytes(PAGE_SIZE - 100)
        self.grown(fs, ino)

    def test_at_the_tenant_quota(self):
        fs = make_fs()
        fs.tenant_create("alice", quota_pages=4)
        ino = fs.create("/t/alice/f")
        fs.write(ino, 0, self.DATA)
        fs.truncate(ino, PAGE_SIZE + 100)
        assert fs.tenant_stats()["alice"]["used_pages"] == 2
        self.grown(fs, ino)             # the rewrite displaces as it maps
        assert fs.tenant_stats()["alice"]["used_pages"] == 2

    @pytest.mark.parametrize("cls", [NovaFS, InlineDedupFS],
                             ids=lambda c: c.__name__)
    @pytest.mark.parametrize("how", ["truncate", "same-page write",
                                     "later-page write", "staged write"])
    def test_a_grow_reads_zeros_past_the_old_eof(self, how, cls):
        fs = make_fs(cls=cls)
        ino = fs.create("/f")
        fs.write(ino, 0, self.DATA)
        # The device refuses the shrink's rewrite: the cut bytes stay.
        with mock.patch.object(fs.allocator, "alloc",
                               side_effect=AllocError("injected")):
            fs.truncate(ino, PAGE_SIZE + 100)
        assert fs.stat(ino).size == PAGE_SIZE + 100
        assert self.past_eof(fs, ino) == self.DATA[PAGE_SIZE + 100:
                                                  2 * PAGE_SIZE]
        at = {"truncate": None, "same-page write": PAGE_SIZE + 300,
              "later-page write": 3 * PAGE_SIZE, "staged write":
              PAGE_SIZE + 300}[how]
        if how == "staged write":
            fs.enable_staging()
        if at is None:
            fs.truncate(ino, 3 * PAGE_SIZE + 1)
        else:
            fs.write(ino, at, b"Q")
        want = bytearray(3 * PAGE_SIZE + 1)
        want[:PAGE_SIZE + 100] = self.DATA[:PAGE_SIZE + 100]
        if at is not None:
            want[at] = ord("Q")
        size = fs.stat(ino).size
        assert fs.read(ino, 0, size) == bytes(want[:size])
        check_fs_invariants(fs)
        fs.unmount()
        fs = cls.mount(fs.dev)
        assert fs.read(fs.lookup("/f"), 0, size) == bytes(want[:size])
        check_fs_invariants(fs)


class TestSparseFiles:
    def test_write_at_large_offset(self):
        fs = make_fs(pages=1024)
        ino = fs.create("/sparse")
        offset = 100 * PAGE_SIZE
        fs.write(ino, offset, b"far away")
        assert fs.stat(ino).size == offset + 8
        # Holes cost nothing: only 1 data page + logs allocated.
        assert fs.statfs()["used_pages"] < 10
        assert fs.read(ino, offset - 5, 13) == bytes(5) + b"far away"

    def test_sparse_survives_remount(self):
        fs = make_fs(pages=1024)
        ino = fs.create("/s")
        fs.write(ino, 50 * PAGE_SIZE, b"tail")
        fs.write(ino, 0, b"head")
        fs.unmount()
        fs2 = NovaFS.mount(fs.dev)
        ino2 = fs2.lookup("/s")
        assert fs2.read(ino2, 0, 4) == b"head"
        assert fs2.read(ino2, 50 * PAGE_SIZE, 4) == b"tail"
        assert fs2.read(ino2, 25 * PAGE_SIZE, 8) == bytes(8)

    def test_sparse_dedup_only_touches_real_pages(self):
        fs = make_fs(pages=1024, cls=DeNovaFS)
        ino = fs.create("/s")
        fs.write(ino, 10 * PAGE_SIZE, bytes([3]) * PAGE_SIZE)
        fs.daemon.drain()
        assert fs.obs.registry.counter("daemon.pages_scanned_total").value == 1
        assert fs.space_stats()["logical_pages"] == 1


class TestWriteBoundaries:
    def test_single_byte_writes_across_page_boundary(self):
        fs = make_fs()
        ino = fs.create("/f")
        for off in (PAGE_SIZE - 1, PAGE_SIZE, PAGE_SIZE + 1):
            fs.write(ino, off, bytes([off % 256]))
        got = fs.read(ino, PAGE_SIZE - 1, 3)
        assert got == bytes([(PAGE_SIZE - 1) % 256, PAGE_SIZE % 256,
                             (PAGE_SIZE + 1) % 256])

    def test_exact_page_multiple_write(self):
        fs = make_fs()
        ino = fs.create("/f")
        data = b"\x5a" * (3 * PAGE_SIZE)
        fs.write(ino, 0, data)
        assert fs.read(ino, 0, len(data)) == data
        assert fs.stat(ino).size == 3 * PAGE_SIZE

    def test_write_ending_at_page_boundary_no_tail_copy(self):
        fs = make_fs()
        ino = fs.create("/f")
        fs.write(ino, 0, b"a" * (2 * PAGE_SIZE))
        bytes_before = fs.dev.stats.bytes_read
        fs.write(ino, PAGE_SIZE, b"b" * PAGE_SIZE)  # aligned both ends
        # No head/tail merge page reads (small GC-bookkeeping reads only).
        assert fs.dev.stats.bytes_read - bytes_before < 64

    def test_interleaved_read_write_consistency(self):
        fs = make_fs(pages=1024)
        ino = fs.create("/f")
        state = bytearray()
        import random

        rng = random.Random(11)
        for _ in range(60):
            off = rng.randrange(0, 3 * PAGE_SIZE)
            data = bytes([rng.randrange(256)]) * rng.randrange(1, 600)
            fs.write(ino, off, data)
            if len(state) < off:
                state.extend(bytes(off - len(state)))
            state[off:off + len(data)] = data
            check_off = rng.randrange(0, len(state))
            n = rng.randrange(1, 500)
            expected = bytes(state[check_off:check_off + n])
            assert fs.read(ino, check_off, n) == expected


class TestClockMonotonicity:
    def test_every_operation_advances_time(self):
        fs = make_fs()
        times = [fs.clock.now_ns]

        def tick(op):
            op()
            assert fs.clock.now_ns > times[-1]
            times.append(fs.clock.now_ns)

        ino_box = []
        tick(lambda: ino_box.append(fs.create("/f")))
        ino = ino_box[0]
        tick(lambda: fs.write(ino, 0, b"x" * 100))
        tick(lambda: fs.read(ino, 0, 100))
        tick(lambda: fs.stat(ino))
        tick(lambda: fs.truncate(ino, 10))
        tick(lambda: fs.unlink("/f"))
