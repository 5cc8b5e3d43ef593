"""A contiguous run is one device request in the dedup daemon too.

A write entry names one contiguous physical extent, so Algorithm 1's
chunking read fetches a node's live pages with one device request per
maximal run of them: a page the foreground overwrote before the daemon
ran ends a run and is never read, and a page the hybrid write path
already registered is never read either.  Relocation copies each run of
moves whose old and new pages are both consecutive with one read and one
nt write, and its plan reads the delete pointers of each run of
consecutive old blocks with one request.  The guards count the device
requests per node and per copy.
"""

import hashlib

from repro.dedup.daemon import DedupDaemon
from repro.dedup.hybrid import HybridDeNovaFS
from repro.dedup.reflink import SNAPSHOT_DIR
from repro.failure import check_fs_invariants
from repro.nova import PAGE_SIZE
from repro.repl import relocate_latest
from tests.dedup.test_fact_reads import make_fs, pointer_requests


def page(tag: int) -> bytes:
    return tag.to_bytes(4, "little") * (PAGE_SIZE // 4)


def node_reads(monkeypatch, fs) -> dict[int, list[tuple[int, int]]]:
    """Target entry -> ``(device page, bytes)`` of each device read the
    daemon's fingerprint stage made for that node, in node order."""
    out: dict[int, list[tuple[int, int]]] = {}
    node: list[int] = []
    real_read, real_stage = fs.dev.read, DedupDaemon.fingerprint_page

    def read(addr, n):
        if node:
            out.setdefault(node[-1], []).append((addr // PAGE_SIZE, n))
        return real_read(addr, n)

    def fingerprint_page(self, task, pgoff):
        node.append(task.node.entry_addr)
        try:
            return real_stage(self, task, pgoff)
        finally:
            node.pop()

    monkeypatch.setattr(fs.dev, "read", read)
    monkeypatch.setattr(DedupDaemon, "fingerprint_page", fingerprint_page)
    return out


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
        reads = node_reads(monkeypatch, fs)
        chunks = hashed(monkeypatch, fs)
        fs.daemon.drain()
        assert list(reads.values()) == [[(extent_of(fs, "/f"),
                                          8 * PAGE_SIZE)]]
        assert chunks == pages
        assert_fingerprints_match_blocks(fs)

    def test_a_stale_page_ends_a_run_and_is_not_read(self, monkeypatch):
        fs = make_fs()
        pages = [page(i) for i in range(1, 9)]
        ino = fs.create("/f")
        fs.write(ino, 0, b"".join(pages))
        first = extent_of(fs, "/f")
        fs.write(ino, 3 * PAGE_SIZE, page(99))   # before the daemon runs
        reads = node_reads(monkeypatch, fs)
        chunks = hashed(monkeypatch, fs)
        scanned = fs.obs.registry.counter("daemon.pages_scanned_total")
        stale = fs.obs.registry.counter("daemon.pages_stale_total")
        fs.daemon.drain()
        target, overwrite = reads.values()
        assert target == [(first, 3 * PAGE_SIZE),
                          (first + 4, 4 * PAGE_SIZE)]
        assert overwrite == [(fs.caches[ino].index.block_of(3), PAGE_SIZE)]
        assert pages[3] not in chunks
        assert chunks == pages[:3] + pages[4:] + [page(99)]
        # Today's per-page counts stand: 9 pages scanned, 1 stale.
        assert (scanned.value, stale.value) == (9, 1)
        assert fs.read(ino, 0, 8 * PAGE_SIZE) == b"".join(
            pages[:3] + [page(99)] + pages[4:])

    def test_an_in_node_duplicate_is_staged_once(self, monkeypatch):
        fs = make_fs()
        a, b, c = page(1), page(2), page(3)
        ino = fs.create("/f")
        fs.write(ino, 0, a + b + a + c)
        reads = node_reads(monkeypatch, fs)
        dups = fs.obs.registry.counter("daemon.pages_duplicate_total")
        fs.daemon.drain()
        assert [len(r) for r in reads.values()] == [1]
        assert dups.value == 1
        index = fs.caches[ino].index
        assert index.block_of(2) == index.block_of(0)
        assert fs.read(ino, 0, 4 * PAGE_SIZE) == a + b + a + c
        assert_fingerprints_match_blocks(fs)
        check_fs_invariants(fs)

    def test_hybrid_registered_pages_are_not_read(self, monkeypatch):
        fs = make_fs(HybridDeNovaFS)
        a = page(1)
        fs.write(fs.create("/a"), 0, a)          # weak-registered inline
        ino = fs.create("/b")
        fs.write(ino, 0, page(2) + page(3) + a + page(4))
        (node,) = fs.dwq.snapshot()
        assert sorted(p for p, h in node.weak_hints.items() if h > 0) == [2]
        reads = node_reads(monkeypatch, fs)
        fs.daemon.drain()
        assert list(reads.values()) == [[(extent_of(fs, "/b") + 2,
                                          PAGE_SIZE)]]
        confirmed = fs.obs.registry.counter("dedup.weak_confirmed_dups_total")
        assert confirmed.value == 1
        assert fs.caches[ino].index.block_of(2) == extent_of(fs, "/a")
        check_fs_invariants(fs)


class TestRelocateCopiesOneRequestPerRun:
    def test_a_consecutive_batch_is_one_read_and_one_nt_write(
            self, monkeypatch):
        fs = make_fs(pages=1024)
        pages = [page(i) for i in range(1, 5)]
        # Pages 4..7 duplicate 0..3: after dedup the file maps one run
        # twice, so its batch moves 0..3 and leaves 4..7's slots unused.
        fs.write(fs.create("/data"), 0, b"".join(pages + pages))
        fs.daemon.drain()
        fs.snapshot("s1")
        path = f"{SNAPSHOT_DIR}/s1/data"
        old = extent_of(fs, path)
        reads, writes = [], []
        real_read, real_write = fs.dev.read, fs.dev.write

        def read(addr, n):
            if addr // PAGE_SIZE in range(old, old + 4):
                reads.append((addr // PAGE_SIZE, n))
            return real_read(addr, n)

        def write(addr, data, nt=False, persist=False):
            if nt:
                writes.append((addr // PAGE_SIZE, len(data)))
            return real_write(addr, data, nt=nt, persist=persist)

        monkeypatch.setattr(fs.dev, "read", read)
        monkeypatch.setattr(fs.dev, "write", write)
        pointers = pointer_requests(monkeypatch, fs)
        assert relocate_latest(fs)["pages_moved"] == 4
        new = extent_of(fs, path)
        assert reads == [(old, 4 * PAGE_SIZE)]
        # The plan's FACT lookups: one pointer request for the run; then
        # each retarget checks the old block's pointer.
        assert [p for p in pointers if p[0] in range(old, old + 4)] == [
            (old, 3 * 64 + 8)] + [(old + i, 8) for i in range(4)]
        assert [w for w in writes if w[0] in range(new, new + 4)] == [
            (new, 4 * PAGE_SIZE)]
        assert fs.read(fs.lookup(path), 0, 8 * PAGE_SIZE) == b"".join(
            pages + pages)
        check_fs_invariants(fs)
