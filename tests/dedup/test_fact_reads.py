"""A FACT line is read once per operation visit.

A count update takes the counts of the entry its operation has just read
(the line is still in the CPU cache), a claim takes the chain head from
the lookup it follows, and a line is read again only after a flush
evicted it (docs/CONSISTENCY.md §5).  The guards count device reads per
call: reclaim is two reads for a shared page, three for a removed entry
(the post-flush re-read of ``remove``) and one for a direct free; a
staged duplicate costs exactly its lookup; an inline unique page is
looked up once.
"""

import hashlib
import itertools

import pytest

from repro.dedup import DeNovaFS, InlineDedupFS
from repro.dedup.daemon import DedupDaemon
from repro.dedup.fact import FACT
from repro.dedup.hybrid import HybridDeNovaFS
from repro.dedup.inline import AdaptiveInlineFS
from repro.failure import check_fs_invariants
from repro.nova import PAGE_SIZE
from repro.pm import DRAM, PMDevice, SimClock


def make_fs(cls=DeNovaFS, pages=256):
    dev = PMDevice(pages * PAGE_SIZE, model=DRAM, clock=SimClock())
    return cls.mkfs(dev, max_inodes=32)


def colliding(fs, n):
    """``n`` distinct page images whose fingerprints share one DAA head."""
    heads: dict[int, list[bytes]] = {}
    for i in itertools.count(1):
        page = i.to_bytes(4, "little") * (PAGE_SIZE // 4)
        group = heads.setdefault(
            fs.fact.head_of(hashlib.sha1(page).digest()), [])
        group.append(page)
        if len(group) == n:
            return group


def visits(monkeypatch, fs, owner, name):
    """``(device reads, FACT lookup steps)`` of each later call of
    ``owner.name``, in call order."""
    stats = fs.dev.stats
    steps = fs.obs.registry.counter("fact.lookup_steps_total")
    out = []
    real = getattr(owner, name)

    def counted(*args, **kw):
        reads, walked = stats.reads, steps.value
        result = real(*args, **kw)
        out.append((stats.reads - reads, steps.value - walked))
        return result

    monkeypatch.setattr(owner, name, counted)
    return out


def write_file(fs, path, data):
    fs.write(fs.create(path), 0, data)


def entry_of(fs, page):
    """The live FACT entry holding ``page``'s content."""
    fp = hashlib.sha1(page).digest()
    (ent,) = [e for e in fs.fact.live_entries().values() if e.fp == fp]
    return ent


class TestFactReadsOncePerVisit:
    def test_reclaim_of_a_shared_page_reads_twice(self, monkeypatch):
        fs = make_fs()
        page = colliding(fs, 1)[0]
        write_file(fs, "/a", page)
        write_file(fs, "/b", page)
        fs.daemon.drain()
        calls = visits(monkeypatch, fs, DeNovaFS, "reclaim_extents")
        fs.unlink("/a")
        assert calls == [(2, 0)]  # delete pointer, entry
        assert entry_of(fs, page).refcount == 1
        counter = fs.obs.registry.counter
        assert counter("dedup.shared_page_keeps_total").value == 1
        check_fs_invariants(fs)

    def test_reclaim_that_removes_a_daa_entry_reads_three_times(
            self, monkeypatch):
        fs = make_fs()
        page = colliding(fs, 1)[0]
        write_file(fs, "/a", page)
        fs.daemon.drain()
        assert entry_of(fs, page).idx < fs.fact.daa_size
        calls = visits(monkeypatch, fs, DeNovaFS, "reclaim_extents")
        fs.unlink("/a")
        assert calls == [(3, 0)]  # + remove's read after the flush
        assert fs.fact.live_entries() == {}
        check_fs_invariants(fs)

    def test_reclaim_that_removes_an_iaa_entry_reads_three_times(
            self, monkeypatch):
        fs = make_fs()
        head, linked = colliding(fs, 2)
        write_file(fs, "/a", head)
        write_file(fs, "/b", linked)
        fs.daemon.drain()
        assert entry_of(fs, linked).idx >= fs.fact.daa_size
        calls = visits(monkeypatch, fs, DeNovaFS, "reclaim_extents")
        fs.unlink("/b")
        assert calls == [(3, 0)]
        assert [e.fp for e in fs.fact.live_entries().values()] \
            == [hashlib.sha1(head).digest()]
        fs.fact.check_chains()
        check_fs_invariants(fs)

    def test_a_direct_free_reads_once(self, monkeypatch):
        fs = make_fs()
        write_file(fs, "/a", colliding(fs, 1)[0])  # never deduplicated
        calls = visits(monkeypatch, fs, DeNovaFS, "reclaim_extents")
        fs.unlink("/a")
        assert calls == [(1, 0)]  # an empty delete pointer

    def test_a_staged_duplicate_costs_its_lookup(self, monkeypatch):
        fs = make_fs()
        head, linked = colliding(fs, 2)
        write_file(fs, "/a", head)
        write_file(fs, "/b", linked)
        fs.daemon.drain()
        write_file(fs, "/c", linked)   # a hit at chain depth 2
        write_file(fs, "/d", head)     # a DAA hit
        calls = visits(monkeypatch, fs, DedupDaemon, "stage_page")
        fs.daemon.drain()
        assert calls == [(2, 2), (1, 1)]
        assert fs.obs.registry.counter(
            "daemon.pages_duplicate_total").value == 2
        check_fs_invariants(fs)

    def test_an_inline_duplicate_costs_its_lookup(self, monkeypatch):
        fs = make_fs(InlineDedupFS)
        head, linked = colliding(fs, 2)
        write_file(fs, "/a", head + linked)
        calls = visits(monkeypatch, fs, InlineDedupFS, "_classify")
        write_file(fs, "/b", linked + head)
        assert calls == [(2, 2), (1, 1)]
        assert entry_of(fs, linked).refcount == 2
        check_fs_invariants(fs)

    def test_an_inline_unique_page_is_looked_up_once(self, monkeypatch):
        fs = make_fs(InlineDedupFS)
        pages = colliding(fs, 3)
        lookups = fs.obs.registry.counter("fact.lookups_total")
        before = lookups.value
        calls = visits(monkeypatch, fs, InlineDedupFS, "_register_unique")
        write_file(fs, "/a", b"".join(pages))
        assert lookups.value - before == 3
        assert calls == [(0, 0)] * 3  # the claim reads nothing
        assert fs.fact.occupancy()["iaa_used"] == 2

    def test_a_resumed_commit_reads_only_through_the_delete_pointer(
            self, monkeypatch):
        fs = make_fs(InlineDedupFS)
        pages = colliding(fs, 2)
        with monkeypatch.context() as m:
            # Power fails after the tail update, before step 6.
            m.setattr(InlineDedupFS, "_settle_pages",
                      lambda self, placed, appended: None)
            write_file(fs, "/a", b"".join(pages))
        fs.dev.crash()
        fs.dev.recover_view()
        calls = visits(monkeypatch, fs, FACT, "commit_uc")
        fs2 = InlineDedupFS.mount(fs.dev)
        assert calls == [(0, 0)] * 2
        assert fs2.last_recovery.extra["dedup"]["in_process_resumed"] == 1
        assert {(e.refcount, e.update_count)
                for e in fs2.fact.live_entries().values()} == {(1, 0)}
        check_fs_invariants(fs2)


class TestInlineClaimHint:
    """The claim's hint is the lookup just before it, so it is never
    stale: nothing between them stores to the FACT."""

    @pytest.mark.parametrize("cls", [InlineDedupFS, AdaptiveInlineFS])
    def test_unique_pages_of_one_write_share_a_prefix(self, cls):
        fs = make_fs(cls)
        pages = colliding(fs, 3)
        data = b"".join(pages) + pages[1]
        write_file(fs, "/a", data)
        fs.fact.check_chains()
        check_fs_invariants(fs)
        assert fs.read(fs.lookup("/a"), 0, len(data)) == data
        assert fs.space_stats()["physical_pages"] == 3

    def test_a_claim_into_an_emptied_head_keeps_its_chain(self):
        fs = make_fs(InlineDedupFS)
        head, linked, fresh = colliding(fs, 3)
        write_file(fs, "/a", head)
        write_file(fs, "/b", linked)
        fs.unlink("/a")   # the head is zeroed in place, its next kept
        at = fs.fact.head_of(hashlib.sha1(fresh).digest())
        ent = fs.fact.read_entry(at)
        assert not ent.valid and ent.next == entry_of(fs, linked).idx
        write_file(fs, "/c", fresh)
        assert entry_of(fs, fresh).idx == at
        assert fs.fact.read_entry(at).next == entry_of(fs, linked).idx
        fs.fact.check_chains()
        check_fs_invariants(fs)
        assert fs.read(fs.lookup("/b"), 0, PAGE_SIZE) == linked
        assert fs.read(fs.lookup("/c"), 0, PAGE_SIZE) == fresh
        assert fs.fact.lookup(hashlib.sha1(linked).digest()).steps == 2


class TestWeakColumnRead:
    """A hybrid mount rebuilds its weak index from one charged bulk read
    of the DAA: the column of block *B* lives in slot *B*, and every
    block address is below 2^n, the DAA's size."""

    @pytest.mark.parametrize("clean", [True, False])
    def test_the_rebuild_reads_the_table_once(self, monkeypatch, clean):
        fs = make_fs(HybridDeNovaFS)
        write_file(fs, "/a", colliding(fs, 1)[0])
        if clean:
            fs.unmount()
        else:
            fs.dev.crash()
            fs.dev.recover_view()
        stats, seen = fs.dev.stats, []
        real = FACT.weak_column

        def weak_column(self):
            reads, nbytes = stats.reads, stats.bytes_read
            out = real(self)
            seen.append((stats.reads - reads, stats.bytes_read - nbytes))
            return out

        monkeypatch.setattr(FACT, "weak_column", weak_column)
        fs2 = HybridDeNovaFS.mount(fs.dev)
        assert seen == [(1, fs2.fact.daa_size * 64)]
        assert fs2._weak_by_block       # the column was decoded
        check_fs_invariants(fs2)
