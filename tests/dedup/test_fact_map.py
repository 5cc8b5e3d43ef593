"""The FACT's DAA chunk map: one persisted bit per 16 DAA slots (1 KB)
that have ever been stored to (docs/CONSISTENCY.md §4).

The DAA is hash-addressed, so no prefix mark can bound it; the map does.
FACT's three device writers set a chunk's bit, with one atomic persisted
store of its 8-byte word, before their first store into the chunk, and
nothing clears one.  So every DAA slot outside a marked chunk is zero,
and an unclean mount (``FACT.in_dram``) or hybrid's weak-index rebuild
(``FACT.weak_column``) reads the map, then only the marked chunks, one
request per neighbourhood.  A map page of 0 (an image formatted before
the map) means the whole DAA.
"""

import hashlib
import itertools
from functools import lru_cache

import numpy as np
import pytest

from repro.dedup import DeNovaFS
from repro.dedup.fact import ENTRY, FACT
from repro.dedup.fingerprint import FP_BYTES
from repro.failure import (InvariantViolation, check_fs_invariants, image,
                           sweep_crash_points)
from repro.nova import PAGE_SIZE
from repro.nova.layout import (_OFF_FACT_MAP_PAGE, FACT_CHUNK_SLOTS,
                               Geometry, Superblock)
from repro.pm import DRAM, OPTANE_DCPM, PMDevice, SimClock
from tests._ledger import Ledger

CHUNK = FACT_CHUNK_SLOTS * ENTRY        # bytes of the table per map bit


def map_requests(model, marked, daa: int, mark: int) -> list:
    """``(offset in the table, bytes)`` of the reads that take the marked
    chunks (a bool per chunk) and ``IAA[:mark]``: two neighbours share a
    request when the unread gap between them streams within one read
    latency on ``model``."""
    reach = model.read_latency_ns * model.read_bw_bytes_per_ns
    spans = [(c * CHUNK, (c + 1) * CHUNK) for c in np.flatnonzero(marked)]
    if mark:
        spans.append((daa * ENTRY, (daa + mark) * ENTRY))
    out: list = []
    for lo, hi in spans:
        if out and lo - sum(out[-1]) <= reach:
            out[-1] = (out[-1][0], hi - out[-1][0])
        else:
            out.append((lo, hi - lo))
    return out


def stored_chunks(dev, fact) -> np.ndarray:
    """Per DAA chunk, whether the device holds a non-zero byte there."""
    raw = dev.read_silent(fact.base, fact.daa_size * ENTRY)
    return np.frombuffer(raw, np.uint8).reshape(-1, CHUNK).any(axis=1)


def make_fs(model=DRAM):
    dev = PMDevice(1024 * PAGE_SIZE, model=model, clock=SimClock())
    return DeNovaFS.mkfs(dev, max_inodes=64)


def page(i: int) -> bytes:
    return i.to_bytes(4, "little") * (PAGE_SIZE // 4)


def map_log(led, geo) -> list:
    """The kind of every charged read and 8-byte aligned store (the
    map's word stores) the ledger saw in the map region."""
    lo = geo.fact_map_page * PAGE_SIZE
    return [r.kind for r in led.select(
        "read", "read_view", "write", within=(lo, lo + geo.fact_map_bytes))
        if r.kind != "write" or (r.n == 8 and r.addr % 8 == 0)]


class TestLayout:
    def test_the_map_is_carved_right_after_the_fact(self):
        geo = Geometry.compute(1024, max_inodes=64, with_dedup=True)
        areas = [name for name, page, pages in geo.areas() if pages]
        assert areas[areas.index("FACT") + 1] == "FACT chunk map"
        fact_pages = geo.fact_bytes // PAGE_SIZE
        assert geo.fact_map_page == geo.fact_page + fact_pages
        assert geo.fact_map_bytes == 1024 // FACT_CHUNK_SLOTS // 8
        # The e2e geometry: a 2^16-slot DAA, 4 096 chunks, 512 B.
        e2e = Geometry.compute(2 ** 16, with_dedup=True)
        assert e2e.fact_map_bytes == 512
        assert Geometry.compute(1024, max_inodes=64).fact_map_page == 0

    def test_mkfs_stores_the_page_and_a_zero_map(self):
        fs = make_fs()
        dev = fs.dev
        dev.write(fs.fact.map_base, b"\xff" * 8, persist=True)  # stale
        fs = DeNovaFS.mkfs(dev, max_inodes=64)
        assert Superblock.load(dev).geo.fact_map_page \
            == fs.geo.fact_map_page
        assert not image.chunk_map(dev).any()
        assert len(image.chunk_map(dev)) == fs.fact.daa_size \
            // FACT_CHUNK_SLOTS


class TestMarking:
    def test_the_first_store_into_a_chunk_marks_it_once(self):
        fs = make_fs()
        with Ledger(fs.dev) as led:
            fs.write(fs.create("/a"), 0, page(1) + page(2) + page(1))
            fs.daemon.drain()
            marked = image.chunk_map(fs.dev)
            assert (marked == stored_chunks(fs.dev, fs.fact)).all()
            log = map_log(led, fs.geo)
            assert log.count("write") == marked.sum() >= 2
            assert "read" not in log        # mkfs knows its map
            fs.write(fs.create("/b"), 0, page(1))  # chunks already marked
            fs.daemon.drain()
        assert map_log(led, fs.geo) == log
        check_fs_invariants(fs)

    def test_every_writer_marks_and_iaa_slots_do_not(self):
        fs = make_fs()
        fact = fs.fact
        fact.set_block_weak(5 * FACT_CHUNK_SLOTS, 7)        # weak column
        fact._write_u64(9 * FACT_CHUNK_SLOTS + 3, 24, 1)    # a u64 field
        fact._write_fields(20 * FACT_CHUNK_SLOTS, 0, 0, 5, -1,
                           bytes(FP_BYTES))
        fact._write_u64(fact.daa_size + 1, 24, 1)           # IAA
        assert np.flatnonzero(image.chunk_map(fs.dev)).tolist() == [5, 9, 20]

    @pytest.mark.parametrize("how", ["checkpoint", "scan", "unclean"])
    def test_a_mount_reads_the_map_once_and_its_writes_never(self, how):
        fs = make_fs()
        fs.write(fs.create("/a"), 0, page(1))
        fs.daemon.drain()
        dev = fs.dev
        if how == "unclean":
            dev.crash()
            dev.recover_view()
        else:
            fs.unmount()
        marked, geo = image.chunk_map(dev), fs.geo
        with Ledger(dev) as led:
            fs2 = DeNovaFS.mount(dev, use_checkpoint=how == "checkpoint")
            assert map_log(led, geo) == ["read"]
            words = np.array(fs2.fact.chunk_map(), "<u8").view(np.uint8)
            assert (np.unpackbits(words, bitorder="little")[:len(marked)]
                    == marked).all()
            for i in range(2, 40):
                fs2.write(fs2.create(f"/f{i}"), 0, page(i))
            fs2.daemon.drain()
        log = map_log(led, geo)
        assert log[0] == "read" and "read" not in log[1:]
        assert log.count("write") \
            == image.chunk_map(dev).sum() - marked.sum() > 0
        check_fs_invariants(fs2)

    def test_a_map_page_of_zero_is_the_whole_daa(self):
        """An image formatted before the map: recovery reads the DAA and
        ``IAA[:mark]`` in one request, and no store marks a chunk."""
        fs = make_fs()
        dev = fs.dev
        dev.write_atomic64(_OFF_FACT_MAP_PAGE, 0, persist=True)
        dev.crash()
        dev.recover_view()
        with Ledger(dev) as led:
            fs2 = DeNovaFS.mount(dev)
        fact = fs2.fact
        assert fact.chunk_map() is None and image.chunk_map(dev) is None
        assert (fact.base, fact.daa_size * ENTRY) in [
            (r.addr, r.n) for r in led.select("read_view")]
        fs2.write(fs2.create("/a"), 0, page(1))
        fs2.daemon.drain()
        assert fs2.fact.live_entries()
        map_bytes = dev.read_silent(fs.fact.map_base, fs.geo.fact_map_bytes)
        assert not any(map_bytes)
        check_fs_invariants(fs2)


class TestMapReads:
    """Twin of ``test_fact_reads.py::TestDeletePointerRuns``: the marked
    chunks are read one request per neighbourhood (``neighbourhoods``),
    a gap read through when streaming it costs no more than a second
    request's latency — 250 ns × 6 B/ns = 1 500 B on Optane."""

    def reads_of(self, chunks):
        dev = PMDevice(1024 * PAGE_SIZE, model=OPTANE_DCPM, clock=SimClock())
        fs = DeNovaFS.mkfs(dev, max_inodes=64)
        fact = fs.fact
        for c in chunks:
            fact.set_block_weak(c * FACT_CHUNK_SLOTS, 1)
        lo, hi = fact.base, fact.base + fact.total * ENTRY
        with Ledger(dev) as led, fact.in_dram():
            assert bytes(fact._dram) == dev.read_silent(lo, hi - lo)
        reads = [(r.addr - lo, r.n)
                 for r in led.select("read_view", within=(lo, hi))]
        assert reads == map_requests(dev.model, image.chunk_map(dev),
                                     fact.daa_size, fact.iaa_mark)
        return reads

    def test_two_chunks_one_chunk_apart_share_a_request(self):
        assert self.reads_of([3, 5]) == [(3 * CHUNK, 3 * CHUNK)]

    def test_a_gap_wider_than_the_reach_splits_the_read(self):
        assert self.reads_of([3, 6]) == [(3 * CHUNK, CHUNK),
                                         (6 * CHUNK, CHUNK)]

    def test_the_weak_column_reads_the_marked_chunks(self):
        fs = make_fs(OPTANE_DCPM)
        fact, stats = fs.fact, fs.dev.stats
        fact.set_block_weak(200, 0xBEEF)
        fact.set_block_weak(700, 0xCAFE)
        reads, nbytes = stats.reads, stats.bytes_read
        assert fact.weak_column() == {200: 0xBEEF, 700: 0xCAFE}
        assert (stats.reads - reads, stats.bytes_read - nbytes) \
            == (2, 2 * CHUNK)


class TestMapInvariant:
    def test_a_stored_byte_in_a_clear_chunk_fails(self):
        fs = make_fs()
        fact = fs.fact
        at = fact.base + 30 * CHUNK + 5 * ENTRY + 40
        fs.dev.write(at, b"\x01", persist=True)
        with pytest.raises(InvariantViolation,
                           match=rf"FACT\[{30 * FACT_CHUNK_SLOTS}\].*"
                                 "chunk-map bit is clear"):
            check_fs_invariants(fs)

    def test_a_pointer_stored_without_its_mark_is_caught(self, monkeypatch):
        """The mutation: ``set_delete`` stores the pointer without first
        marking its chunk."""
        def set_delete(self, block, idx):
            self.dev.write_atomic64(self.addr(block) + 32, idx + 1,
                                    persist=True)
        monkeypatch.setattr(FACT, "set_delete", set_delete)
        fs = make_fs()
        fs.write(fs.create("/a"), 0, window()[0])
        fs.daemon.drain()
        with pytest.raises(InvariantViolation,
                           match="chunk-map bit is clear"):
            check_fs_invariants(fs)

    def test_the_check_charges_nothing(self):
        fs = make_fs()
        fs.write(fs.create("/a"), 0, page(1))
        fs.daemon.drain()
        reads, at = fs.dev.stats.reads, fs.clock.charged_fs
        check_fs_invariants(fs)
        assert (fs.dev.stats.reads, fs.clock.charged_fs) == (reads, at)


@lru_cache(maxsize=1)
def window() -> tuple[bytes, int, int]:
    """A page image whose dedup insert, the first store into a fresh
    table, lands its DAA head and its block's delete slot in two
    different chunks: ``(page, block, head)``."""
    fs = make_fs()
    fs.write(fs.create("/a"), 0, page(0))
    cache = fs.caches[fs.lookup("/a")]
    block = cache.index.block_of(0)     # the block any first write takes
    for i in itertools.count(1):
        head = fs.fact.head_of(hashlib.sha1(page(i)).digest())
        if head // FACT_CHUNK_SLOTS != block // FACT_CHUNK_SLOTS:
            return page(i), block, head


class TestMapCrashWindow:
    """A crash at every persistence event of an insert whose DAA head and
    delete slot both fall in unmarked chunks — before and after each,
    lines dropped or torn — leaves every stored DAA byte in a marked
    chunk, and the entry either counted or gone."""

    def test_every_persist_event_of_the_first_insert(self):
        data, block, head = window()

        def build():
            fs = make_fs()
            fs.write(fs.create("/a"), 0, data)
            assert not image.chunk_map(fs.dev).any()
            return fs.dev, fs.daemon.drain

        outcomes = set()

        def check(dev, point, phase):
            fs = DeNovaFS.mount(dev)
            check_fs_invariants(fs)
            marked = image.chunk_map(dev)
            assert not (stored_chunks(dev, fs.fact) & ~marked).any()
            entries = fs.fact.live_entries()
            if head in entries:
                assert entries[head].block == block
                assert marked[head // FACT_CHUNK_SLOTS]
                assert marked[block // FACT_CHUNK_SLOTS]
            outcomes.add(head in entries)

        assert sweep_crash_points(build, check,
                                  mode=("discard", "torn")) >= 8
        assert outcomes == {True, False}
