"""One count store per FACT entry per operation.

A dedup node, an inline write or a received file looks each distinct
fingerprint up once, and a reflink reads each distinct source block's
entry once; each stages every page carrying it with one ``UC += n``
store; the commit settles each entry with one ``UC - n, RFC + n`` store;
an overwrite that displaces ``n`` references to one canonical page reads
its entry once and drops them with one ``RFC -= n`` store
(docs/CONSISTENCY.md §4, §5).  The
directed cases count requests through the ledger; the sweep crashes the
same three shapes at every persist event, and after recovery and a drain
every entry still counts at least the mappings onto its block.
"""

import io

import pytest

from repro.backup import receive_backup, send_backup
from repro.dedup import DeNovaFS, InlineDedupFS
from repro.failure import check_fs_invariants, sweep_crash_points
from repro.fuzz.diff import flags_converged
from repro.nova import PAGE_SIZE
from repro.nova.radix import page_refs
from repro.pm import DRAM, PMDevice, SimClock
from tests._ledger import Ledger


def page_of(tag: int) -> bytes:
    return tag.to_bytes(8, "little") * (PAGE_SIZE // 8)


P, Q, R = page_of(1), page_of(2), page_of(3)


def mkfs(cls=DeNovaFS):
    dev = PMDevice(1024 * PAGE_SIZE, model=DRAM, clock=SimClock())
    return cls.mkfs(dev, max_inodes=64)


def entry_of(fs, page):
    fp = fs.fingerprinter.strong(page)
    (ent,) = [e for e in fs.fact.live_entries().values() if e.fp == fp]
    return ent


def counts_stores(led, fs, idx):
    """Stores to entry ``idx``'s counts word."""
    at = fs.fact.addr(idx)
    return led.select("write", within=(at, at + 8))


def entry_reads(led, fs, idx):
    """Charged requests that read entry ``idx``'s line."""
    at = fs.fact.addr(idx)
    return led.select("read", within=(at, at + 64))


def lookups(fs) -> float:
    return fs.obs.registry.counter("fact.lookups_total").value


# -- the three shapes: build() -> (fs, operation) ----------------------------

def overwrite_of_a_fourfold_page():
    """``/a`` maps one canonical page four times, ``/b`` once (RFC 5);
    the operation overwrites all four of ``/a``'s mappings."""
    fs = mkfs()
    fs.write(fs.create("/a"), 0, P * 4)
    fs.write(fs.create("/b"), 0, P)
    fs.daemon.drain()

    def op(f):
        f.write(f.lookup("/a"), 0, Q + R + page_of(4) + page_of(5))
        f.daemon.drain()
    return fs, op


def node_of_a_threefold_page():
    """``/a`` holds P; the node of ``/b`` carries P three times and the
    new Q twice (a claim shared by its copy)."""
    fs = mkfs()
    fs.write(fs.create("/a"), 0, P)
    fs.daemon.drain()
    fs.write(fs.create("/b"), 0, P + Q + P + Q + P)
    return fs, lambda f: f.daemon.drain()


def inline_write_of_a_threefold_page():
    fs = mkfs(InlineDedupFS)
    fs.write(fs.create("/a"), 0, P)
    ino = fs.create("/b")
    return fs, lambda f: f.write(ino, 0, P + Q + P + Q + P)


class TestOneCountStorePerEntry:
    def test_an_overwrite_drops_a_fourfold_page_with_one_store(self):
        fs, op = overwrite_of_a_fourfold_page()
        ent = entry_of(fs, P)
        assert ent.refcount == 5
        with Ledger(fs.dev) as led:
            fs.write(fs.lookup("/a"), 0, Q + R + page_of(4) + page_of(5))
        assert len(entry_reads(led, fs, ent.idx)) == 1
        assert len(counts_stores(led, fs, ent.idx)) == 1
        assert entry_of(fs, P).refcount == 1       # RFC - 4
        assert fs.obs.registry.counter(
            "dedup.shared_page_keeps_total").value == 4
        check_fs_invariants(fs)

    def test_a_node_stages_a_threefold_hit_once(self):
        fs, op = node_of_a_threefold_page()
        ent = entry_of(fs, P)
        before = lookups(fs)
        with Ledger(fs.dev) as led:
            op(fs)
        assert lookups(fs) - before == 2           # P and Q
        assert len(counts_stores(led, fs, ent.idx)) == 2  # UC += 3; settle
        got = entry_of(fs, P)
        assert (got.refcount, got.update_count) == (4, 0)
        assert entry_of(fs, Q).refcount == 2
        check_fs_invariants(fs)

    def test_an_inline_write_stages_a_threefold_hit_once(self):
        fs, op = inline_write_of_a_threefold_page()
        ent = entry_of(fs, P)
        before = lookups(fs)
        with Ledger(fs.dev) as led:
            op(fs)
        assert lookups(fs) - before == 2
        assert len(counts_stores(led, fs, ent.idx)) == 2
        got = entry_of(fs, P)
        assert (got.refcount, got.update_count) == (4, 0)
        assert entry_of(fs, Q).refcount == 2
        assert fs.space_stats()["physical_pages"] == 2
        check_fs_invariants(fs)

    def test_a_reflink_shares_a_fourfold_page_with_one_store(self):
        fs = mkfs()
        fs.write(fs.create("/a"), 0, P * 4)
        fs.daemon.drain()
        ent = entry_of(fs, P)
        assert ent.refcount == 4
        with Ledger(fs.dev) as led:
            fs.reflink("/a", "/c")
        assert len(entry_reads(led, fs, ent.idx)) == 1    # the plan's
        assert len(counts_stores(led, fs, ent.idx)) == 2  # UC += 4; settle
        got = entry_of(fs, P)
        assert (got.refcount, got.update_count) == (8, 0)
        assert fs.read(fs.lookup("/c"), 0, 4 * PAGE_SIZE) == P * 4
        check_fs_invariants(fs)

    def test_a_received_threefold_page_is_looked_up_once(self):
        src = mkfs()
        src.write(src.create("/f"), 0, P + Q + P + P)
        src.daemon.drain()
        src.snapshot("s1")
        stream = io.BytesIO()
        send_backup(src, "s1", stream)
        stream.seek(0)
        fs = mkfs()
        before = lookups(fs)
        assert receive_backup(fs, stream)["committed"]
        assert lookups(fs) - before == 2           # P and Q
        got = entry_of(fs, P)
        assert (got.refcount, got.update_count) == (3, 0)
        assert fs.read(fs.lookup("/.snapshots/s1/f"), 0, 4 * PAGE_SIZE) \
            == P + Q + P + P
        check_fs_invariants(fs)


SHAPES = (overwrite_of_a_fourfold_page, node_of_a_threefold_page,
          inline_write_of_a_threefold_page)


def sweep(shape) -> int:
    """Crash ``shape``'s operation at every persist event; each recovery
    mount, drained, counts every mapping onto each entry's block.
    Returns the crash points checked."""
    cls = type(shape()[0])

    def build():
        fs, op = shape()
        return fs.dev, lambda: op(fs)

    def check(dev, point, phase):
        fs = cls.mount(dev)
        fs.daemon.drain()
        refs = page_refs(fs)
        for ent in fs.fact.live_entries().values():
            assert ent.refcount >= refs[ent.block], \
                f"{phase} {point}: FACT[{ent.idx}] RFC {ent.refcount} < " \
                f"{refs[ent.block]} mappings"
        assert flags_converged(fs), f"{phase} {point}: in_process left"
        check_fs_invariants(fs)

    return sweep_crash_points(build, check, mode=("discard", "torn"))


@pytest.mark.recovery
@pytest.mark.parametrize("shape", SHAPES)
def test_a_crash_at_every_persist_event_keeps_every_reference_counted(shape):
    assert sweep(shape) > 10
