"""Integration tests for DeNovaFS (offline dedup filesystem)."""

import pytest

from repro.dedup import DeNovaFS
from repro.failure import check_fs_invariants
from repro.nova import PAGE_SIZE
from repro.pm import DRAM, PMDevice, SimClock

from tests.nova.test_read_runs import runs_of


def make_fs(pages=2048, **kw):
    dev = PMDevice(pages * PAGE_SIZE, model=DRAM, clock=SimClock())
    return DeNovaFS.mkfs(dev, max_inodes=kw.pop("max_inodes", 256), **kw)


def page_of(tag: int) -> bytes:
    return bytes([tag & 0xFF]) * PAGE_SIZE


class TestWritePathIntegration:
    def test_writes_enqueue_dwq_nodes(self):
        fs = make_fs()
        ino = fs.create("/f")
        fs.write(ino, 0, b"x" * 100)
        fs.write(ino, PAGE_SIZE, b"y" * 100)
        assert len(fs.dwq) == 2
        assert fs.dwq.enqueued == 2

    def test_mkfs_requires_fact_region(self):
        from repro.nova import NovaFS
        from repro.nova.layout import Geometry, Superblock

        dev = PMDevice(512 * PAGE_SIZE, model=DRAM, clock=SimClock())
        geo = Geometry.compute(512, max_inodes=64, with_dedup=False)
        with pytest.raises(ValueError, match="FACT"):
            DeNovaFS(Superblock.format(dev, geo))

    def test_foreground_write_does_no_fingerprinting(self):
        """The offline property: the write path never hashes."""
        fs = make_fs()
        ino = fs.create("/f")
        fs.write(ino, 0, page_of(1) * 8)
        assert fs.fingerprinter.strong_count == 0
        fs.daemon.drain()
        assert fs.fingerprinter.strong_count == 8


class TestRFCReclaim:
    def test_shared_page_survives_one_owner_unlink(self):
        fs = make_fs()
        a = fs.create("/a")
        b = fs.create("/b")
        fs.write(a, 0, page_of(9))
        fs.write(b, 0, page_of(9))
        fs.daemon.drain()
        fs.unlink("/a")
        assert fs.read(b, 0, PAGE_SIZE) == page_of(9)
        keeps = fs.obs.registry.counter("dedup.shared_page_keeps_total")
        assert keeps.value == 1
        check_fs_invariants(fs)

    def test_last_owner_unlink_frees_page_and_entry(self):
        fs = make_fs()
        a = fs.create("/a")
        b = fs.create("/b")
        fs.write(a, 0, page_of(9))
        fs.write(b, 0, page_of(9))
        fs.daemon.drain()
        used = fs.statfs()["used_pages"]
        fs.unlink("/a")
        fs.unlink("/b")
        assert fs.statfs()["used_pages"] < used
        assert fs.fact.live_entries() == {}
        removes = fs.obs.registry.counter("dedup.fact_entry_removes_total")
        assert removes.value == 1
        check_fs_invariants(fs)

    def test_overwrite_of_shared_page(self):
        fs = make_fs()
        a = fs.create("/a")
        b = fs.create("/b")
        fs.write(a, 0, page_of(9) * 2)
        fs.write(b, 0, page_of(9) * 2)
        fs.daemon.drain()
        fs.write(a, 0, page_of(5) * 2)
        assert fs.read(a, 0, 2 * PAGE_SIZE) == page_of(5) * 2
        assert fs.read(b, 0, 2 * PAGE_SIZE) == page_of(9) * 2
        check_fs_invariants(fs)

    def test_overwrite_of_intra_file_duplicates(self):
        """Fuzzer-found: a file whose own pages deduped onto one
        canonical block must drop *every* reference on overwrite.

        Two of the three written pages share an image, so after the
        drain two radix slots point at one block with RFC=2.  The
        overwrite displaces that block twice; collapsing the duplicates
        left the entry live at RFC=1 with no references, and a remount's
        free-list rebuild then handed its block to new data while the
        stale entry still claimed it.
        """
        fs = make_fs()
        a = fs.create("/a")
        fs.write(a, 0, page_of(9) + page_of(9) + page_of(4))
        fs.daemon.drain()
        fs.write(a, 0, page_of(5) * 3)
        assert fs.read(a, 0, 3 * PAGE_SIZE) == page_of(5) * 3
        fs.daemon.drain()
        blocks = {e.block for e in fs.fact.live_entries().values()}
        assert len(blocks) == len(fs.fact.live_entries())
        check_fs_invariants(fs)

    def test_unlink_of_intra_file_duplicates_releases_entry(self):
        fs = make_fs()
        a = fs.create("/a")
        fs.write(a, 0, page_of(9) * 3)
        fs.daemon.drain()
        fs.unlink("/a")
        assert fs.fact.live_entries() == {}
        check_fs_invariants(fs)

    def test_truncate_of_shared_pages(self):
        fs = make_fs()
        a = fs.create("/a")
        b = fs.create("/b")
        fs.write(a, 0, page_of(9) * 4)
        fs.write(b, 0, page_of(9) * 4)
        fs.daemon.drain()
        fs.truncate(a, 0)
        assert fs.read(b, 0, 4 * PAGE_SIZE) == page_of(9) * 4
        check_fs_invariants(fs)


class TestUnmountRemount:
    def test_clean_unmount_saves_dwq(self):
        fs = make_fs()
        for i in range(5):
            ino = fs.create(f"/f{i}")
            fs.write(ino, 0, page_of(i))
        assert len(fs.dwq) == 5
        fs.unmount()
        fs2 = DeNovaFS.mount(fs.dev)
        assert len(fs2.dwq) == 5
        assert fs2.last_recovery.extra["dwq_restored"] == 5
        fs2.daemon.drain()
        nodes = fs2.obs.registry.counter("daemon.nodes_processed_total")
        assert nodes.value == 5
        check_fs_invariants(fs2)

    def test_remount_preserves_dedup_state(self):
        fs = make_fs()
        a = fs.create("/a")
        b = fs.create("/b")
        fs.write(a, 0, page_of(1) * 2)
        fs.write(b, 0, page_of(1) * 2)
        fs.daemon.drain()
        saved = fs.space_stats()["pages_saved"]
        fs.unmount()
        fs2 = DeNovaFS.mount(fs.dev)
        assert fs2.space_stats()["pages_saved"] == saved
        assert fs2.read(fs2.lookup("/a"), 0, 2 * PAGE_SIZE) == page_of(1) * 2
        check_fs_invariants(fs2)

    def test_dedup_after_remount_uses_existing_entries(self):
        fs = make_fs()
        a = fs.create("/a")
        fs.write(a, 0, page_of(7))
        fs.daemon.drain()
        fs.unmount()
        fs2 = DeNovaFS.mount(fs.dev)
        b = fs2.create("/b")
        fs2.write(b, 0, page_of(7))
        fs2.daemon.drain()
        assert fs2.space_stats()["physical_pages"] == 1
        check_fs_invariants(fs2)


class TestReadRuns:
    """``fs.read`` fetches each contiguous physical run of its range with
    one device request; a hole reads as zeros and costs none."""

    @staticmethod
    def pattern(tag: int) -> bytes:
        return bytes((tag * 31 + k) % 251 for k in range(PAGE_SIZE))

    def test_a_deduplicated_file_with_a_hole(self):
        fs = make_fs()
        a, b = fs.create("/a"), fs.create("/b")
        p = [self.pattern(i) for i in range(7)]
        fs.write(a, 0, p[0] + p[1] + p[2] + p[3])
        fs.write(b, 0, p[0] + p[1] + p[4] + p[5])
        fs.write(b, 5 * PAGE_SIZE, p[6] + p[3])        # page 4: a hole
        fs.daemon.drain()
        index, shared = fs.caches[b].index, fs.caches[a].index
        assert [index.block_of(i) for i in (0, 1, 6)] \
            == [shared.block_of(i) for i in (0, 1, 3)]
        assert index.block_of(4) is None

        offset, length = 100, 7 * PAGE_SIZE - 300
        last = (offset + length - 1) // PAGE_SIZE
        pages = b"".join(
            bytes(PAGE_SIZE) if (block := index.block_of(pg)) is None
            else fs.dev.read_silent(block * PAGE_SIZE, PAGE_SIZE)
            for pg in range(last + 1))
        runs = [r for r in runs_of(index) if r[0] <= last]
        assert len(runs) < sum(count for _p, _b, count in runs)
        reads = fs.dev.stats.reads
        data = fs.read(b, offset, length)
        assert data == pages[offset:offset + length]
        assert data == (p[0] + p[1] + p[4] + p[5] + bytes(PAGE_SIZE)
                        + p[6] + p[3])[offset:offset + length]
        assert fs.dev.stats.reads - reads == len(runs)
        assert fs.read(b, offset, 0) == b"" and fs.dev.stats.reads \
            == reads + len(runs)


class TestScrub:
    def test_scrub_noop_on_consistent_fs(self):
        fs = make_fs()
        a = fs.create("/a")
        fs.write(a, 0, page_of(1) * 2)
        fs.daemon.drain()
        rep = fs.scrub()
        assert rep == {"entries_removed": 0, "pages_freed": 0,
                       "overcounted_remaining": 0, "examined": 1,
                       "next_cursor": 0, "done": True}

    def test_scrub_reclaims_leaked_page(self):
        """Simulate the §V-C2 over-increment leak and scrub it away."""
        fs = make_fs()
        a = fs.create("/a")
        fs.write(a, 0, page_of(1))
        fs.daemon.drain()
        (idx, ent), = fs.fact.live_entries().items()
        # forge an over-increment: RFC = 2 with only one reference
        fs.fact.inc_uc(idx, fs.fact.read_counts(idx))
        fs.fact.commit_uc(idx, fs.fact.read_counts(idx))
        fs.unlink("/a")            # dec to 1 -> page leaked, entry alive
        assert fs.fact.live_entries()
        rep = fs.scrub()
        assert rep["entries_removed"] == 1
        assert rep["pages_freed"] == 1
        assert fs.fact.live_entries() == {}
        check_fs_invariants(fs)

    def test_scrub_leaves_overcounted_live_entries(self):
        fs = make_fs()
        a = fs.create("/a")
        fs.write(a, 0, page_of(1))
        fs.daemon.drain()
        (idx, _), = fs.fact.live_entries().items()
        fs.fact.inc_uc(idx, fs.fact.read_counts(idx))
        fs.fact.commit_uc(idx, fs.fact.read_counts(idx))  # RFC 2, actual 1
        rep = fs.scrub()
        assert rep["overcounted_remaining"] == 1
        assert fs.read(a, 0, PAGE_SIZE) == page_of(1)


class TestSpaceStats:
    def test_dedup_ratio_scales_with_alpha(self):
        def run(n_dup, n_total=20):
            fs = make_fs()
            for i in range(n_total):
                ino = fs.create(f"/f{i}")
                tag = 250 if i < n_dup else i
                fs.write(ino, 0, page_of(tag))
            fs.daemon.drain()
            return fs.space_stats()["space_saving"]

        s0 = run(0)
        s50 = run(10)
        s90 = run(18)
        assert s0 == 0.0
        assert 0.35 <= s50 <= 0.5
        assert s90 > s50

    def test_fact_occupancy_in_space_stats(self):
        fs = make_fs()
        a = fs.create("/a")
        fs.write(a, 0, page_of(1) * 3)
        fs.daemon.drain()
        st = fs.space_stats()
        assert st["fact"]["entries"] == 1
        assert st["dwq_backlog"] == 0
