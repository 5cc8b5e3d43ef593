"""A FACT line is read once per operation visit.

A count update takes the counts of the entry its operation has just read
(the line is still in the CPU cache), a claim takes the chain head from
the lookup it follows, and a line is read again only after a flush
evicted it (docs/CONSISTENCY.md §5).  The guards count device reads per
call: reclaim is two reads for a shared page, three for a removed entry
(the post-flush re-read of ``remove``) and one for a direct free; a
staged duplicate costs exactly its lookup; an inline unique page is
looked up once.  Reclaim reads the delete pointers of an extent's pages
with one request, since their slots are adjacent (``TestDeletePointerRuns``).
"""

import hashlib
import itertools

import numpy as np
import pytest

from repro.backup.diff import diff_snapshots
from repro.dedup import DeNovaFS, InlineDedupFS, recovery
from repro.dedup.daemon import DedupDaemon
from repro.dedup.fact import ENTRY, FACT, FactTxn
from repro.dedup.fingerprint import FP_BYTES
from repro.dedup.hybrid import HybridDeNovaFS
from repro.dedup.inline import AdaptiveInlineFS
from repro.failure import check_fs_invariants, image, sweep_crash_points
from repro.fuzz import FuzzConfig, FuzzRunner
from repro.nova import PAGE_SIZE
from repro.nova.entries import DEDUPE_IN_PROCESS
from repro.pm import DRAM, CrashRequested, PMDevice, SimClock
from repro.repl.relocate import relocate_latest
from tests._ledger import READS, Ledger
from tests.conc.test_fact_locking import four_clients_share_claims
from tests.dedup import test_count_merge as count_merge
from tests.dedup.test_fact_map import map_requests
from tests.repl.util import page_of


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
        calls = visits(monkeypatch, fs, InlineDedupFS, "_place_pages")
        write_file(fs, "/b", linked + head)
        assert calls == [(3, 3)]  # the two lookups; the shares read nothing
        assert entry_of(fs, linked).refcount == 2
        check_fs_invariants(fs)

    def test_an_inline_unique_page_is_looked_up_once(self, monkeypatch):
        fs = make_fs(InlineDedupFS)
        pages = colliding(fs, 3)
        lookups = fs.obs.registry.counter("fact.lookups_total")
        before = lookups.value
        calls = visits(monkeypatch, fs, FactTxn, "claim")
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


def apart(fs, n):
    """``n`` page images whose fingerprints have ``n`` distinct DAA heads."""
    pages: dict[int, bytes] = {}
    for i in itertools.count(1):
        page = i.to_bytes(4, "little") * (PAGE_SIZE // 4)
        pages.setdefault(fs.fact.head_of(hashlib.sha1(page).digest()), page)
        if len(pages) == n:
            return list(pages.values())


def fact_reads(led, fact):
    """The sizes of the charged reads of the FACT region, in order."""
    return [r.n for r in led.select(*READS, within=(
        fact.base, fact.base + fact.total * ENTRY))]


#: What a caller asks a transaction's held map for: ``(offset, size)``
#: in the slot -> the kind of value.
HELD_KINDS = {(0, 8): "counts", (32, 8): "pointer", (0, 60): "entry"}


@pytest.fixture
def held_values(monkeypatch):
    """Compare every value a transaction's held map serves (a counts word,
    a delete pointer, an entry) with the bytes on the media.  The
    returned report fills as it runs: per kind, the values ``used``,
    those the map held but its guard ``refused`` (a store flushed the
    slot since), and the ``mismatches``."""
    report = {kind: {"used": 0, "refused": 0, "mismatches": []}
              for kind in HELD_KINDS.values()}
    real = FactTxn.held

    def held(txn, slot, off, n):
        got = real(txn, slot, off, n)
        row = report[HELD_KINDS[off, n]]
        if got is not None:
            row["used"] += 1
            media = txn.fact.dev.read_silent(txn.fact.addr(slot) + off, n)
            if got != media:
                row["mismatches"].append((slot, off, got, media))
        elif slot in txn._held:
            _stamp, raw, at = txn._held[slot]
            if 0 <= at + off and at + off + n <= len(raw):
                row["refused"] += 1
        return got

    monkeypatch.setattr(FactTxn, "held", held)
    return report


def media_equal(report, *kinds):
    """Each of ``kinds`` was served at least once, and nothing served
    differs from the media."""
    return all(report[kind]["used"] for kind in kinds) and not any(
        row["mismatches"] for row in report.values())


class TestHeldCounts:
    """A transaction never reads back a counts word it stored or its
    lookup read: it holds the word with FACT's store number and uses it
    while no store has flushed the slot since.  The daemon's
    ``settle_claims`` keeps its read (docs/CONSISTENCY.md §5)."""

    def test_an_inline_write_reads_only_its_lookups(self):
        fs = make_fs(InlineDedupFS)
        p, r = apart(fs, 2)
        write_file(fs, "/a", p)                 # P's entry: a hit below
        with Ledger(fs.dev) as led:
            write_file(fs, "/b", p + r + p + r + p)
        assert fact_reads(led, fs.fact) == [ENTRY, ENTRY]
        assert (entry_of(fs, p).refcount, entry_of(fs, r).refcount) == (4, 2)
        check_fs_invariants(fs)

    def test_a_node_shares_its_claim_without_a_read(self, monkeypatch):
        fs = make_fs()
        (q,) = apart(fs, 1)
        write_file(fs, "/a", q + q)
        shares = visits(monkeypatch, fs, FactTxn, "share")
        settles = visits(monkeypatch, fs, FactTxn, "settle_claims")
        fs.daemon.drain()
        assert shares == [(0, 0)]
        assert settles == [(1, 0)]              # the one kept read
        assert entry_of(fs, q).refcount == 2
        check_fs_invariants(fs)

    def test_a_hybrid_node_shares_a_materialised_canonical_without_a_read(
            self, monkeypatch):
        """``/a`` = X is weak-registered only; ``/b`` = X X confirms it,
        materialises its entry (``RFC=1``) and shares it twice: the
        share takes the word the materialise stored."""
        fs = make_fs(HybridDeNovaFS, pages=1024)
        (x,) = apart(fs, 1)
        write_file(fs, "/a", x)
        fs.daemon.drain()
        write_file(fs, "/b", x + x)
        reads, real = [], FactTxn.share

        def share(txn, idx, n=1):
            at = fs.fact.addr(idx)
            with Ledger(fs.dev) as led:
                real(txn, idx, n)
            reads.append((n, len(led.select(*READS, within=(at, at + 8)))))

        monkeypatch.setattr(FactTxn, "share", share)
        fs.daemon.drain()
        assert reads == [(2, 0)]
        assert fs.obs.registry.counter(
            "dedup.weak_confirmed_dups_total").value == 1
        got = entry_of(fs, x)
        assert (got.refcount, got.update_count) == (3, 0)
        check_fs_invariants(fs)

    def test_another_transactions_store_forces_the_read(self):
        fs = make_fs()
        fact = fs.fact
        (page,) = apart(fs, 1)
        t1, t2 = FactTxn(fact), FactTxn(fact)
        idx = t1.claim(hashlib.sha1(page).digest(), fs.allocator.alloc(1, 0))
        at = fact.addr(idx)

        def committed(txn):
            with Ledger(fs.dev) as led:
                txn.commit()
            ent = fact.read_entry(idx)
            return (len(led.select(*READS, within=(at, at + 8))),
                    ent.refcount, ent.update_count)

        t2.share(idx)          # t1's held word is stale from here on
        assert committed(t1) == (1, 1, 1)       # t2's unit survives
        assert committed(t2) == (1, 2, 0)
        t3 = FactTxn(fact)
        t3.share(idx)
        assert committed(t3) == (0, 3, 0)       # its own store: held

    @pytest.mark.recovery
    @pytest.mark.parametrize("shape", count_merge.SHAPES)
    def test_every_held_word_is_the_media_word_across_a_crash_sweep(
            self, held_values, shape):
        count_merge.sweep(shape)
        assert media_equal(held_values, "counts")

    def test_every_held_word_is_the_media_word_in_an_inline_campaign(
            self, held_values):
        cfg = FuzzConfig(seed=42, total_ops=48, seq_ops=8, budget=16,
                         dedup_mode="inline")
        res = FuzzRunner(cfg, shrink_failures=False).run()
        assert res.ok, "; ".join(str(f.violation) for f in res.failures)
        assert res.crash_points
        assert media_equal(held_values, "counts")

    def test_held_values_match_media_in_relocation_reflink_and_diff(
            self, held_values):
        """The pointers and entries the other views serve: two reflinks,
        a snapshot diff and a relocation of that snapshot, and the
        reclaims of the overwrite and unlinks after them.  The first
        reflink's lookup of ``y`` reads ``x``'s line, then its claim links
        ``y`` behind it: ``x``'s entry, next, is read again."""
        fs = make_fs(pages=1024)
        x, y = colliding(fs, 2)
        ino = fs.create("/x")
        fs.write(ino, PAGE_SIZE, x)
        fs.daemon.drain()
        fs.write(ino, 0, y)                 # no entry yet
        fs.reflink("/x", "/y")
        a = [page_of(i) for i in range(1, 9)]
        b = [a[3], page_of(20), a[0], page_of(21), a[6], a[1], a[0]]
        write_file(fs, "/a", b"".join(a))
        write_file(fs, "/b", b"".join(b))
        fs.daemon.drain()
        fs.reflink("/a", "/c")
        fs.snapshot("s1")
        assert diff_snapshots(fs, "s1").unique_pages == 12
        assert relocate_latest(fs)["pages_moved"]
        fs.write(fs.lookup("/a"), 0, page_of(30) * 2)
        fs.daemon.drain()
        for path in ("/a", "/b", "/c", "/x", "/y"):
            fs.unlink(path)
        check_fs_invariants(fs)
        assert media_equal(held_values, "counts", "pointer", "entry")
        assert held_values["entry"]["refused"]

    @pytest.mark.conc
    def test_every_held_word_is_the_media_word_under_parallel_workers(
            self, held_values):
        """The daemon's held words outlive its ``fact``-locked stage into
        the node's commit, an engine operation later, where another
        worker may have stored to the slot: there the word is refused
        and read again."""
        def check(dev, point, phase):
            check_fs_invariants(DeNovaFS.mount(dev))

        assert sweep_crash_points(four_clients_share_claims, check) > 400
        assert media_equal(held_values, "counts")
        assert held_values["counts"]["refused"]


@pytest.fixture
def direct_frees(monkeypatch):
    """Read the delete pointer of every page ``free_extents`` frees off
    the media: the returned ``(freed, named)`` lists fill as it runs,
    ``named`` with the pages whose pointer is not empty."""
    freed, named = [], []
    real = DeNovaFS.free_extents

    def free_extents(self, extents, cpu):
        extents = list(extents)
        for start, count in extents:
            for page in range(start, start + count):
                freed.append(page)
                if self.fact.delete_run(page, 1, silent=True) != [0]:
                    named.append(page)
        real(self, extents, cpu)

    monkeypatch.setattr(DeNovaFS, "free_extents", free_extents)
    return freed, named


class TestOwnDuplicatesFreeDirectly:
    """The pages a dedup node displaces are its own fresh pages, which
    no FACT entry describes: they are freed without a pointer read, and
    each one's pointer on the media is empty."""

    @pytest.mark.recovery
    @pytest.mark.parametrize("shape", count_merge.SHAPES)
    def test_every_direct_free_has_an_empty_pointer_across_a_crash_sweep(
            self, direct_frees, shape):
        count_merge.sweep(shape)
        freed, named = direct_frees
        assert not named
        assert freed or shape is not count_merge.node_of_a_threefold_page

    def test_every_direct_free_has_an_empty_pointer_in_a_campaign(
            self, direct_frees):
        cfg = FuzzConfig(seed=42, total_ops=160, seq_ops=8, budget=64)
        res = FuzzRunner(cfg, shrink_failures=False).run()
        assert res.ok, "; ".join(str(f.violation) for f in res.failures)
        assert res.crash_points
        freed, named = direct_frees
        assert freed and not named


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
    """A hybrid mount rebuilds its weak index from the DAA's marked
    chunks, one request per neighbourhood (the mount has read the chunk
    map already): the column of block *B* lives in slot *B*, and every
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
        reqs = map_requests(fs.dev.model, image.chunk_map(fs.dev),
                            fs2.fact.daa_size, 0)
        assert seen == [(len(reqs), sum(n for _lo, n in reqs))]
        assert 0 < sum(n for _lo, n in reqs) < fs2.fact.daa_size * 64
        assert fs2._weak_by_block       # the column was decoded
        check_fs_invariants(fs2)


def pointer_requests(led, fact):
    """``(slot, bytes)`` of each device read so far that starts at a FACT
    slot's delete column, in order."""
    return [(off // ENTRY, r.n) for r in led.select("read")
            if 0 <= (off := r.addr - fact.base) < fact.total * ENTRY
            and off % ENTRY == 32]


def pages_of(fs, path):
    cache = fs.caches[fs.lookup(path)]
    return [cache.index.block_of(p) for p in cache.index.mapped_offsets]


def reach(fs):
    """The widest slot gap one pointer request reads through: reading
    ``gap * 64`` bytes more costs no more than a request's latency."""
    model = fs.dev.model
    return int(model.read_latency_ns * model.read_bw_bytes_per_ns // ENTRY)


class TestDeletePointerRuns:
    """An operation reads its delete pointers first, one request per
    neighbourhood of slots (``FactTxn.plan``): the pointers of blocks
    ``[b, b + n)`` sit in adjacent 64 B slots, read as ``(n - 1) * 64 + 8``
    bytes at slot ``b``'s delete column, and two planned slots at most
    :func:`reach` apart share a request.  A pointer the operation stored
    is not read back; one whose line another store flushed is read again,
    alone."""

    def test_a_contiguous_reclaim_reads_its_pointers_once(
            self, monkeypatch):
        fs = make_fs()
        data = b"".join(colliding(fs, 1)[0][:-1] + bytes([i])
                        for i in range(5))
        write_file(fs, "/a", data)
        fs.daemon.drain()
        blocks = pages_of(fs, "/a")
        assert blocks == list(range(blocks[0], blocks[0] + 5))
        calls = visits(monkeypatch, fs, DeNovaFS, "reclaim_extents")
        with Ledger(fs.dev) as led:
            fs.unlink("/a")
        assert pointer_requests(led, fs.fact) == [(blocks[0], 4 * 64 + 8)]
        assert calls == [(1 + 5 * 2, 0)]  # + entry and remove's re-read
        assert fs.fact.live_entries() == {}
        check_fs_invariants(fs)

    def test_a_hole_splits_the_run(self):
        fs = make_fs()
        rng = np.random.default_rng(5)
        ino = fs.create("/a")
        fs.write(ino, 0, rng.bytes(5 * PAGE_SIZE))
        fs.write(ino, 2 * PAGE_SIZE, rng.bytes(PAGE_SIZE))  # moves page 2
        fs.daemon.drain()
        b = pages_of(fs, "/a")
        # One-page holes at b[1] + 1 (the old page 2) and b[4] + 1.
        assert b[1] + 2 == b[3] and b[4] + 2 == b[2] <= b[0] + reach(fs)
        with Ledger(fs.dev) as led:
            fs.unlink("/a")
        assert pointer_requests(led, fs.fact) == [
            (b[0], (b[2] - b[0]) * 64 + 8)]  # read through
        check_fs_invariants(fs)

    def test_a_gap_wider_than_the_reach_splits_the_read(self):
        fs = make_fs()
        r = reach(fs)
        b = fs.allocator.alloc(2 * r + 2, 0)
        with Ledger(fs.dev) as led, \
                FactTxn(fs.fact).plan([b, b + r, b + 2 * r + 1]) as plan:
            assert pointer_requests(led, fs.fact) == [
                (b, r * 64 + 8), (b + 2 * r + 1, 8)]
            assert plan.entry(b + r) is None
        assert len(pointer_requests(led, fs.fact)) == 2

    def test_a_block_displaced_twice_has_its_pointer_read_once(self):
        fs = make_fs()
        page = colliding(fs, 1)[0]
        write_file(fs, "/a", page + page)
        fs.daemon.drain()
        block, again = pages_of(fs, "/a")
        assert block == again and entry_of(fs, page).refcount == 2
        with Ledger(fs.dev) as led:
            fs.write(fs.lookup("/a"), 0, b"x" * 2 * PAGE_SIZE)
        assert pointer_requests(led, fs.fact) == [(block, 8)]
        assert fs.fact.live_entries() == {}
        assert fs.allocator.is_free(block)
        check_fs_invariants(fs)

    def test_a_flushed_planned_line_is_read_again(self):
        """A count store to slot ``b`` (an entry living there) flushes
        block ``b``'s pointer out of the cache, and the pointer stored to
        ``b + 1`` outside the transaction flushes that one: ``b + 1``'s is
        read again, alone, and ``b``'s is in the line of the entry read
        from slot ``b`` after it."""
        fs = make_fs()
        fact, bits = fs.fact, fs.fact.prefix_bits
        b = fs.allocator.alloc(2, 0)
        fp = (b << (64 - bits)).to_bytes(8, "big") + bytes(FP_BYTES - 8)
        assert fact.insert(fp, b) == b          # the DAA slot of block b
        with Ledger(fs.dev) as led, \
                FactTxn(fact).plan([b, b + 1]) as plan:
            def reqs():
                return pointer_requests(led, fact)
            assert reqs() == [(b, 64 + 8)]
            fact.commit_uc(b, fact.read_counts(b))  # flushes slot b's line
            fact.set_delete(b + 1, b)
            assert plan.entry(b + 1) is None     # names block b's entry
            assert reqs() == [(b, 64 + 8), (b + 1, 8)]
            assert plan.entry(b).refcount == 1
            assert reqs() == [(b, 64 + 8), (b + 1, 8)]
            assert plan.entry(b).idx == b
        assert reqs() == [(b, 64 + 8), (b + 1, 8)]

    def test_a_single_page_is_one_word(self):
        fs = make_fs()
        write_file(fs, "/a", colliding(fs, 1)[0])
        (block,) = pages_of(fs, "/a")
        with Ledger(fs.dev) as led:
            fs.unlink("/a")
            assert pointer_requests(led, fs.fact) == [(block, 8)]
            assert fs.fact.entry_for_block(block) is None
        assert pointer_requests(led, fs.fact) == [(block, 8)] * 2

    def test_a_node_of_adjacent_duplicates_reads_them_once(
            self, monkeypatch):
        """A node's own duplicates have no entry: it frees them without
        a pointer read.  The canonical pages they now map are planned
        together when ``/b`` drops them."""
        fs = make_fs()
        data = np.random.default_rng(9).bytes(3 * PAGE_SIZE)
        write_file(fs, "/a", data)
        fs.daemon.drain()
        write_file(fs, "/b", data)
        calls = visits(monkeypatch, fs, DeNovaFS, "reclaim_extents")
        counter = fs.obs.registry.counter
        with Ledger(fs.dev) as led:
            fs.daemon.drain()
        assert pointer_requests(led, fs.fact) == []
        assert calls == []
        assert counter("dedup.direct_frees_total").value == 3
        assert counter("daemon.pages_reclaimed_total").value == 3
        shared = pages_of(fs, "/b")
        assert shared == pages_of(fs, "/a")
        with Ledger(fs.dev) as led:
            fs.unlink("/b")
        assert pointer_requests(led, fs.fact) == [(shared[0], 2 * 64 + 8)]
        assert calls == [(1 + 3, 0)]  # the pointers, then each entry
        check_fs_invariants(fs)

    def test_a_crash_at_the_in_process_flag_resumes_with_one_request(
            self, monkeypatch):
        """A target goes ``in_process`` only when it has redirects: the
        last page duplicates the first.  Recovery resumes the target's
        five pages with one pointer request and the redirect's one."""
        fs = make_fs()
        pages = colliding(fs, 4)
        write_file(fs, "/a", b"".join(pages) + pages[0])
        blocks = pages_of(fs, "/a")
        real_flag = DeNovaFS.set_dedupe_flag

        def set_flag(self, addr, flag):
            real_flag(self, addr, flag)
            if flag == DEDUPE_IN_PROCESS:        # power fails right here
                raise CrashRequested("in_process", 1)

        with monkeypatch.context() as m:
            m.setattr(DeNovaFS, "set_dedupe_flag", set_flag)
            with pytest.raises(CrashRequested):
                fs.daemon.drain()
        fs.dev.crash()
        fs.dev.recover_view()
        calls = visits(monkeypatch, fs, recovery, "_resume_step6")
        with Ledger(fs.dev) as led:
            fs2 = DeNovaFS.mount(fs.dev)
        assert len(calls) == 2
        assert [r for r in pointer_requests(led, fs.fact)
                if r[0] in blocks] == [(blocks[0], 4 * 64 + 8),
                                       (blocks[0], 8)]
        assert {e.block: (e.refcount, e.update_count)
                for e in fs2.fact.live_entries().values()} == {
                    blocks[0]: (2, 0), **{b: (1, 0) for b in blocks[1:4]}}
        assert pages_of(fs2, "/a") == blocks[:4] + blocks[:1]
        check_fs_invariants(fs2)

    def test_pointers_stay_right_while_remove_unlinks_inside_the_run(self):
        """Block ``b``'s entry is chained behind the DAA head in slot
        ``b + 2``, itself block ``b + 2``'s entry: unlinking the first
        stores the head's ``next`` inside the run before its pointer is
        used, so that pointer is read again.  Only ``clear_delete`` of the
        page at hand stores to a delete column."""
        fs = make_fs()
        fact, bits = fs.fact, fs.fact.prefix_bits
        b = fs.allocator.alloc(4, 0)

        def fp(head, tag):
            return ((head << (64 - bits)).to_bytes(8, "big")
                    + tag.to_bytes(FP_BYTES - 8, "big"))

        head_idx = fact.insert(fp(b + 2, 1), b + 2)
        linked = fact.insert(fp(b + 2, 2), b)
        other = fact.insert(fp(b + 9, 3), b + 1)
        assert (head_idx, other) == (b + 2, b + 9)
        assert linked >= fact.daa_size
        for idx in (head_idx, linked, other):
            # RFC 1 each; block b + 3: none
            fact.commit_uc(idx, fact.read_counts(idx))
        with Ledger(fs.dev) as led:
            fs.reclaim_extents([(b, 4)], 0)
        # The unlink's store to the head's ``next`` flushed slot b + 2.
        assert pointer_requests(led, fact) == [(b, 3 * 64 + 8), (b + 2, 8)]
        column = [(r.addr, r.n) for r in led.select("write")
                  if any(r.addr < fact.addr(s) + 40 and fact.addr(s) + 32
                         < r.end for s in range(b, b + 4))]
        assert column == [(fact.addr(p) + 32, 8) for p in (b, b + 1, b + 2)]
        # One store each, so what the column holds now is what it stored.
        assert all(fs.dev.read_silent(a, n) == bytes(8) for a, n in column)
        counter = fs.obs.registry.counter
        assert counter("dedup.fact_entry_removes_total").value == 3
        assert counter("dedup.direct_frees_total").value == 1
        assert fact.live_entries() == {}
        fact.check_chains()
        assert all(fs.allocator.is_free(p) for p in range(b, b + 4))

