"""Tests for the deduplication daemon (Algorithm 1)."""

import pytest

from repro.dedup import DeNovaFS
from repro.failure import check_fs_invariants
from repro.nova import PAGE_SIZE
from repro.pm import DRAM, PMDevice, SimClock
from tests._ledger import READS, Ledger


def make_fs(pages=2048, **kw):
    dev = PMDevice(pages * PAGE_SIZE, model=DRAM, clock=SimClock())
    return DeNovaFS.mkfs(dev, max_inodes=kw.pop("max_inodes", 256), **kw)


def page_of(tag: int) -> bytes:
    return bytes([tag & 0xFF]) * PAGE_SIZE


class TestBasicDedup:
    def test_two_identical_files_share_pages(self):
        fs = make_fs()
        a = fs.create("/a")
        b = fs.create("/b")
        content = page_of(1) + page_of(2) + page_of(3)
        fs.write(a, 0, content)
        fs.write(b, 0, content)
        fs.daemon.drain()
        st = fs.space_stats()
        assert st["logical_pages"] == 6
        assert st["physical_pages"] == 3
        assert fs.read(a, 0, 3 * PAGE_SIZE) == fs.read(b, 0, 3 * PAGE_SIZE)
        check_fs_invariants(fs)

    def test_unique_files_share_nothing(self):
        fs = make_fs()
        for i in range(4):
            ino = fs.create(f"/f{i}")
            fs.write(ino, 0, page_of(i))
        fs.daemon.drain()
        st = fs.space_stats()
        assert st["pages_saved"] == 0
        counter = fs.obs.registry.counter
        assert counter("daemon.pages_unique_total").value == 4
        assert counter("daemon.pages_duplicate_total").value == 0

    def test_intra_file_duplicates(self):
        fs = make_fs()
        ino = fs.create("/f")
        fs.write(ino, 0, page_of(7) * 5)
        fs.daemon.drain()
        st = fs.space_stats()
        assert st["logical_pages"] == 5
        assert st["physical_pages"] == 1
        assert fs.read(ino, 0, 5 * PAGE_SIZE) == page_of(7) * 5
        check_fs_invariants(fs)

    def test_rfc_tracks_references(self):
        fs = make_fs()
        inos = []
        for i in range(4):
            ino = fs.create(f"/f{i}")
            fs.write(ino, 0, page_of(42))
            inos.append(ino)
        fs.daemon.drain()
        live = fs.fact.live_entries()
        assert len(live) == 1
        assert next(iter(live.values())).refcount == 4

    def test_dedup_frees_duplicate_pages(self):
        fs = make_fs()
        used_before_any = fs.statfs()["used_pages"]
        a = fs.create("/a")
        b = fs.create("/b")
        fs.write(a, 0, page_of(1) * 4)
        fs.write(b, 0, page_of(1) * 4)
        used_full = fs.statfs()["used_pages"]
        fs.daemon.drain()
        used_after = fs.statfs()["used_pages"]
        assert used_after <= used_full - 3  # ~4 dup pages back (log pages vary)
        assert used_after > used_before_any

    def test_flags_progress_to_complete(self):
        from repro.nova.entries import DEDUPE_COMPLETE, WriteEntry, decode_entry

        fs = make_fs()
        ino = fs.create("/f")
        fs.write(ino, 0, page_of(1) * 2)
        fs.daemon.drain()
        cache = fs.caches[ino]
        flags = [
            decode_entry(raw).dedupe_flag
            for _a, raw in fs.log.iter_slots(cache.inode.log_head, cache.tail)
            if isinstance(decode_entry(raw), WriteEntry)
        ]
        assert flags and all(f == DEDUPE_COMPLETE for f in flags)
        assert len(fs._pending_pages) == 0

    def test_empty_queue_drain_is_noop(self):
        fs = make_fs()
        assert fs.daemon.drain() == 0


class TestStaleness:
    def test_deleted_file_node_skipped(self):
        fs = make_fs()
        ino = fs.create("/f")
        fs.write(ino, 0, page_of(1))
        fs.unlink("/f")
        fs.daemon.drain()
        counter = fs.obs.registry.counter
        assert counter("daemon.nodes_stale_total").value == 1
        assert counter("daemon.pages_scanned_total").value == 0

    def test_overwritten_pages_skipped(self):
        fs = make_fs()
        ino = fs.create("/f")
        fs.write(ino, 0, page_of(1) * 3)
        fs.write(ino, 0, page_of(2) * 3)  # fully supersedes the first
        fs.daemon.drain()
        assert fs.obs.registry.counter("daemon.pages_stale_total").value >= 3
        assert fs.read(ino, 0, 3 * PAGE_SIZE) == page_of(2) * 3
        check_fs_invariants(fs)

    def test_partially_overwritten_entry(self):
        fs = make_fs()
        ino = fs.create("/f")
        fs.write(ino, 0, page_of(1) * 4)
        fs.write(ino, PAGE_SIZE, page_of(2) * 2)  # pages 1-2 replaced
        fs.daemon.drain()
        got = fs.read(ino, 0, 4 * PAGE_SIZE)
        assert got == page_of(1) + page_of(2) * 2 + page_of(1)
        check_fs_invariants(fs)

    def test_dedup_then_overwrite_then_dedup(self):
        fs = make_fs()
        a = fs.create("/a")
        b = fs.create("/b")
        fs.write(a, 0, page_of(1) * 2)
        fs.write(b, 0, page_of(1) * 2)
        fs.daemon.drain()
        fs.write(a, 0, page_of(3) * 2)
        fs.daemon.drain()
        assert fs.read(a, 0, 2 * PAGE_SIZE) == page_of(3) * 2
        assert fs.read(b, 0, 2 * PAGE_SIZE) == page_of(1) * 2
        check_fs_invariants(fs)


class TestEntryFromTheWrite:
    """A node enqueued by a write carries the entry that write committed
    and its inode's cache: while that cache is the live one the daemon
    reads no entry, and another cache under the ino makes it stale.  A
    node restored or rebuilt at mount carries the mounted cache, not the
    entry: it reads its entry once, and is stale under a reused ino."""

    @staticmethod
    def validate_one(fs):
        """Validate the queue's head: ``(task, charged reads)``."""
        node = fs.dwq.dequeue()
        with Ledger(fs.dev) as led:
            task = fs.daemon.validate_node(node)
        return node, task, led.select(*READS)

    def test_a_live_node_reads_no_entry(self):
        fs = make_fs()
        ino = fs.create("/f")
        fs.write(ino, 0, page_of(1) * 2)
        node, task, reads = self.validate_one(fs)
        assert node.cache is fs.caches[ino] and reads == []
        assert task.entry is node.entry and task.entry.num_pages == 2

    def test_a_reused_ino_makes_the_node_stale(self):
        fs = make_fs()
        ino = fs.create("/f")
        fs.write(ino, 0, page_of(1) * 2)
        fs.unlink("/f")
        assert fs.create("/g") == ino
        fs.write(ino, 0, page_of(2) * 2)
        old, new = fs.dwq.snapshot()
        assert old.entry_addr == new.entry_addr  # the log page came back
        counter = fs.obs.registry.counter
        stale = counter("daemon.nodes_stale_total").value
        cache = fs.caches[ino]
        blocks = [cache.index.block_of(p) for p in (0, 1)]
        with Ledger(fs.dev) as led:
            assert fs.daemon.process_one()
        assert counter("daemon.nodes_stale_total").value == stale + 1
        assert not [r for b in blocks for r in led.select(
            *READS, within=(b * PAGE_SIZE, (b + 1) * PAGE_SIZE))]
        assert led.select(*READS) == []
        assert fs.daemon.drain() == 1          # /g's own node
        assert counter("daemon.nodes_stale_total").value == stale + 1
        assert counter("daemon.pages_duplicate_total").value == 1
        assert fs.read(ino, 0, 2 * PAGE_SIZE) == page_of(2) * 2
        check_fs_invariants(fs)

    @pytest.mark.parametrize("clean", [True, False])
    def test_a_node_from_the_mount_reads_its_entry_once(self, clean):
        fs = make_fs()
        ino = fs.create("/f")
        fs.write(ino, 0, page_of(1) * 2)
        (addr,) = [n.entry_addr for n in fs.dwq.snapshot()]
        if clean:
            fs.unmount()        # the save area holds the node
        else:
            fs.dev.crash()      # the flag scan rebuilds it
            fs.dev.recover_view()
        fs2 = DeNovaFS.mount(fs.dev)
        assert fs2.last_recovery.clean is clean
        fs2.caches[ino]         # a clean mount's stub replays its log here
        node, task, reads = self.validate_one(fs2)
        assert node.entry is None and node.cache is fs2.caches[ino]
        assert [(r.addr, r.n) for r in reads] == [(addr, 64)]
        assert task is not None and task.entry.num_pages == 2
        fs2.daemon.commit_node(task)
        check_fs_invariants(fs2)

    @pytest.mark.parametrize("written", [False, True])
    @pytest.mark.parametrize("clean", [True, False])
    def test_a_node_from_the_mount_is_stale_under_a_reused_ino(
            self, monkeypatch, clean, written):
        """``/f``'s node comes back from the mount; ``/f`` is deleted and
        ``/g`` takes its ino (and, written, its old log slot).  The node
        is stale: it stores no flag into ``/f``'s freed log page, and
        ``/g``'s entry is processed once, by ``/g``'s own node."""
        fs = make_fs()
        ino = fs.create("/f")
        fs.write(ino, 0, page_of(1) * 2)
        (addr,) = [n.entry_addr for n in fs.dwq.snapshot()]
        if clean:
            fs.unmount()
        else:
            fs.dev.crash()
            fs.dev.recover_view()
        fs2 = DeNovaFS.mount(fs.dev)
        fs2.unlink("/f")
        assert fs2.create("/g") == ino
        if written:
            fs2.write(ino, 0, page_of(2) * 2)
            assert [n.entry_addr for n in fs2.dwq.snapshot()] == [addr] * 2
        counter = fs2.obs.registry.counter
        stale = counter("daemon.nodes_stale_total").value
        flags, real = [], DeNovaFS.set_dedupe_flag

        def set_flag(self, at, flag):
            flags.append(self.allocator.is_free(at // PAGE_SIZE))
            real(self, at, flag)

        monkeypatch.setattr(DeNovaFS, "set_dedupe_flag", set_flag)
        fs2.daemon.drain()
        assert counter("daemon.nodes_stale_total").value == stale + 1
        assert counter("daemon.nodes_processed_total").value == written
        assert bool(flags) == written and not any(flags)
        assert fs2.read(ino, 0, 2 * PAGE_SIZE) \
            == (page_of(2) * 2 if written else b"")
        check_fs_invariants(fs2)


class TestTriggerModes:
    def test_tick_consumes_at_most_m(self):
        fs = make_fs()
        for i in range(10):
            ino = fs.create(f"/f{i}")
            fs.write(ino, 0, page_of(i))
        assert len(fs.dwq) == 10
        assert fs.daemon.drain(limit=3) == 3
        assert len(fs.dwq) == 7
        assert fs.daemon.drain(limit=100) == 7

    def test_drain_limit(self):
        fs = make_fs()
        for i in range(5):
            ino = fs.create(f"/f{i}")
            fs.write(ino, 0, page_of(i))
        assert fs.daemon.drain(limit=2) == 2
        assert len(fs.dwq) == 3


class TestReorderIntegration:
    def test_hot_chain_reordered_under_collisions(self):
        # Tiny prefix space forces every fingerprint into one ecosystem
        # of chains; repeated duplicates of one page make it hot.
        fs = make_fs(pages=512, max_inodes=128, fact_prefix_bits=9)
        fs.daemon.reorder_min_steps = 2
        fs.daemon.reorder_min_rfc = 2
        # Many distinct pages to build chains, then hammer one content.
        for i in range(40):
            ino = fs.create(f"/u{i}")
            fs.write(ino, 0, page_of(i + 1) + page_of(200))
        fs.daemon.drain()
        counter = fs.obs.registry.counter
        assert counter("daemon.pages_duplicate_total").value >= 30
        check_fs_invariants(fs)
        # Whether prefixes collide depends on the SHA-1 values; when they
        # do, the colliding entries sit in the IAA and their chains stay
        # intact (checked above).
        occ = fs.fact.occupancy()
        if occ["max_chain"] > 1:
            assert occ["iaa_used"] \
                == counter("fact.iaa_inserts_total").value > 0
        assert fs.read(fs.lookup("/u3"), PAGE_SIZE, PAGE_SIZE) == page_of(200)


class TestLogGCVeto:
    def test_pending_entries_block_log_gc(self):
        fs = make_fs()
        ino = fs.create("/f")
        fs.write(ino, 0, page_of(1))
        page = next(iter(fs._pending_pages))
        assert not fs.log_page_gc_allowed(page)
        fs.daemon.drain()
        assert fs.log_page_gc_allowed(page)
