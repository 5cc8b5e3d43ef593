"""A contiguous run is one device request in the dedup daemon too.

A write entry names one contiguous physical extent, so Algorithm 1's
chunking read fetches a node's live pages with one device request per
maximal run of them: a page the foreground overwrote before the daemon
ran ends a run and is never read, and a page the hybrid write path
already registered is never read either.  Relocation copies each run of
moves whose old and new pages are both consecutive with one read and one
nt write, and its plan reads the old blocks' delete pointers with one
request per neighbourhood of slots.  The guards count the device
requests per node and per copy.
"""

import hashlib

from repro.dedup.hybrid import HybridDeNovaFS
from repro.dedup.reflink import SNAPSHOT_DIR
from repro.failure import check_fs_invariants
from repro.nova import PAGE_SIZE
from repro.repl import relocate_latest
from tests._ledger import Ledger
from tests.dedup.test_fact_reads import make_fs, pointer_requests


def page(tag: int) -> bytes:
    return tag.to_bytes(4, "little") * (PAGE_SIZE // 4)


def node_reads(fs) -> list[list[tuple[int, int]]]:
    """Drain the DWQ: ``(device page, bytes)`` of each data read the
    fingerprint stage made, per node that made one, in node order."""
    out = []
    with Ledger(fs.dev) as led:
        while True:
            start = len(led.requests)
            if not fs.daemon.process_one():
                return [reads for reads in out if reads]
            out.append([(r.addr // PAGE_SIZE, r.n)
                        for r in led.requests[start:] if r.kind == "read"
                        and r.caller == "DedupDaemon._read_live"])


def hashed(monkeypatch, fs) -> list[bytes]:
    """Every chunk the strong fingerprint is computed over, in order."""
    out: list[bytes] = []
    real = fs.fingerprinter.strong

    def strong(chunk):
        out.append(bytes(chunk))
        return real(chunk)

    monkeypatch.setattr(fs.fingerprinter, "strong", strong)
    return out


def extent_of(fs, path: str) -> int:
    """First device page of ``path``'s (single-extent) mapping."""
    return fs.caches[fs.lookup(path)].index.block_of(0)


def assert_fingerprints_match_blocks(fs):
    """A mis-sliced hash stores a fingerprint its block does not have."""
    for ent in fs.fact.live_entries().values():
        data = fs.dev.read_silent(ent.block * PAGE_SIZE, PAGE_SIZE)
        assert hashlib.sha1(data).digest() == ent.fp


class TestDaemonReadsOneRequestPerRun:
    def test_a_live_node_is_one_read(self, monkeypatch):
        fs = make_fs()
        pages = [page(i) for i in range(1, 9)]
        fs.write(fs.create("/f"), 0, b"".join(pages))
        chunks = hashed(monkeypatch, fs)
        assert node_reads(fs) == [[(extent_of(fs, "/f"), 8 * PAGE_SIZE)]]
        assert chunks == pages
        assert_fingerprints_match_blocks(fs)

    def test_a_stale_page_ends_a_run_and_is_not_read(self, monkeypatch):
        fs = make_fs()
        pages = [page(i) for i in range(1, 9)]
        ino = fs.create("/f")
        fs.write(ino, 0, b"".join(pages))
        first = extent_of(fs, "/f")
        fs.write(ino, 3 * PAGE_SIZE, page(99))   # before the daemon runs
        chunks = hashed(monkeypatch, fs)
        scanned = fs.obs.registry.counter("daemon.pages_scanned_total")
        stale = fs.obs.registry.counter("daemon.pages_stale_total")
        target, overwrite = node_reads(fs)
        assert target == [(first, 3 * PAGE_SIZE),
                          (first + 4, 4 * PAGE_SIZE)]
        assert overwrite == [(fs.caches[ino].index.block_of(3), PAGE_SIZE)]
        assert pages[3] not in chunks
        assert chunks == pages[:3] + pages[4:] + [page(99)]
        # Today's per-page counts stand: 9 pages scanned, 1 stale.
        assert (scanned.value, stale.value) == (9, 1)
        assert fs.read(ino, 0, 8 * PAGE_SIZE) == b"".join(
            pages[:3] + [page(99)] + pages[4:])

    def test_an_in_node_duplicate_is_staged_once(self):
        fs = make_fs()
        a, b, c = page(1), page(2), page(3)
        ino = fs.create("/f")
        fs.write(ino, 0, a + b + a + c)
        dups = fs.obs.registry.counter("daemon.pages_duplicate_total")
        assert [len(r) for r in node_reads(fs)] == [1]
        assert dups.value == 1
        index = fs.caches[ino].index
        assert index.block_of(2) == index.block_of(0)
        assert fs.read(ino, 0, 4 * PAGE_SIZE) == a + b + a + c
        assert_fingerprints_match_blocks(fs)
        check_fs_invariants(fs)

    def test_hybrid_registered_pages_are_not_read(self):
        fs = make_fs(HybridDeNovaFS)
        a = page(1)
        fs.write(fs.create("/a"), 0, a)          # weak-registered inline
        ino = fs.create("/b")
        fs.write(ino, 0, page(2) + page(3) + a + page(4))
        (node,) = fs.dwq.snapshot()
        assert sorted(p for p, h in node.weak_hints.items() if h > 0) == [2]
        assert node_reads(fs) == [[(extent_of(fs, "/b") + 2, PAGE_SIZE)]]
        confirmed = fs.obs.registry.counter("dedup.weak_confirmed_dups_total")
        assert confirmed.value == 1
        assert fs.caches[ino].index.block_of(2) == extent_of(fs, "/a")
        check_fs_invariants(fs)


class TestRelocateCopiesOneRequestPerRun:
    def test_a_consecutive_batch_is_one_read_and_one_nt_write(self):
        fs = make_fs(pages=1024)
        pages = [page(i) for i in range(1, 5)]
        # Pages 4..7 duplicate 0..3: after dedup the file maps one run
        # twice, so its batch moves 0..3 and leaves 4..7's slots unused.
        # Page 8, written past ``/gap``, is a second neighbourhood (and
        # its delete pointer too): a read takes two requests.
        ino = fs.create("/data")
        fs.write(ino, 0, b"".join(pages + pages))
        fs.write(fs.create("/gap"), 0, b"".join(
            page(i) for i in range(10, 14)))
        fs.write(ino, 8 * PAGE_SIZE, page(9))
        fs.daemon.drain()
        fs.snapshot("s1")
        path = f"{SNAPSHOT_DIR}/s1/data"
        old = extent_of(fs, path)
        with Ledger(fs.dev) as led:
            assert relocate_latest(fs)["pages_moved"] == 5
        new = extent_of(fs, path)
        assert [(r.addr // PAGE_SIZE, r.n) for r in led.select(
            "read", within=(old * PAGE_SIZE, (old + 4) * PAGE_SIZE))] \
            == [(old, 4 * PAGE_SIZE)]
        # The plan's FACT lookups: one pointer request for the run; each
        # retarget takes the old block's pointer from the open plan.
        assert [p for p in pointer_requests(led, fs.fact)
                if p[0] in range(old, old + 4)] == [(old, 3 * 64 + 8)]
        assert [(r.addr // PAGE_SIZE, r.n) for r in led.select(
            "write", within=(new * PAGE_SIZE, (new + 4) * PAGE_SIZE))
            if r.nt] == [(new, 4 * PAGE_SIZE)]
        assert fs.read(fs.lookup(path), 0, 9 * PAGE_SIZE) == b"".join(
            pages + pages + [page(9)])
        check_fs_invariants(fs)

    def test_a_scattered_batch_plans_its_moves_with_one_request(self):
        """Page 1 of the file was rewritten after ``/gap`` was written, so
        its blocks are ``b, b + 7, b + 2, b + 3``: three runs, one
        neighbourhood of delete pointers."""
        fs = make_fs(pages=1024)
        ino = fs.create("/data")
        fs.write(ino, 0, b"".join(page(i) for i in range(1, 5)))
        fs.write(fs.create("/gap"), 0, page(9))
        fs.write(ino, PAGE_SIZE, page(7))
        fs.daemon.drain()
        fs.snapshot("s1")
        path = f"{SNAPSHOT_DIR}/s1/data"
        cache = fs.caches[fs.lookup(path)]
        olds = [cache.index.block_of(p) for p in range(4)]
        b = olds[0]
        assert olds == [b, b + 7, b + 2, b + 3]
        with Ledger(fs.dev) as led:
            assert relocate_latest(fs)["pages_moved"] == 4
        # One request for the plan, which each retarget reads from.
        assert [p for p in pointer_requests(led, fs.fact)
                if p[0] in olds] == [(b, 7 * 64 + 8)]
        check_fs_invariants(fs)
