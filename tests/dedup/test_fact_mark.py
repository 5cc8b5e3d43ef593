"""The FACT's IAA mark: a persisted high-water mark of the IAA slots that
may hold an entry (docs/CONSISTENCY.md §4).

IAA slots are taken lowest first, so recovery and a checkpoint-less
clean mount read only the DAA and ``IAA[:mark]``.  ``FACT.insert``
raises the superblock word a FACT page of slots at a time, durably and
before the first store past the old mark; nothing lowers it.  mkfs
stores a mark of 0, and a word of 0 (an image formatted before the mark)
means the whole IAA.
"""

import hashlib
from functools import lru_cache

import pytest

from repro.dedup import DeNovaFS
from repro.dedup.fact import ENTRY, FACT
from repro.dedup.fingerprint import fp_prefix
from repro.failure import (InvariantViolation, check_fs_invariants, image,
                           sweep_crash_points)
from repro.nova import PAGE_SIZE
from repro.nova.layout import _OFF_IAA_MARK, Geometry, Superblock
from repro.pm import DRAM, PMDevice, SimClock
from tests._ledger import Ledger

BITS = 10                       # a 1024-slot DAA on a 1024-page device
STEP = PAGE_SIZE // ENTRY       # slots per FACT page


@lru_cache(maxsize=1)
def pages() -> tuple[bytes, ...]:
    """``STEP + 3`` distinct page images whose fingerprints share one
    prefix (found on first use, not at collection)."""
    heads: dict[int, list[bytes]] = {}
    i = 0
    while True:
        i += 1
        page = i.to_bytes(4, "little") * (PAGE_SIZE // 4)
        group = heads.setdefault(
            fp_prefix(hashlib.sha1(page).digest(), BITS), [])
        group.append(page)
        if len(group) == STEP + 3:
            return tuple(group)


def make_fs():
    dev = PMDevice(1024 * PAGE_SIZE, model=DRAM, clock=SimClock())
    return DeNovaFS.mkfs(dev, max_inodes=64, fact_prefix_bits=BITS)


def put(fs, path: str, pages) -> None:
    """A file of ``pages``, deduplicated: one FACT entry each."""
    fs.write(fs.create(path), 0, b"".join(pages))
    fs.daemon.drain()


def word_reads(led) -> list:
    """Every charged read of the mark word on the ledger."""
    return led.select("read", within=(_OFF_IAA_MARK, _OFF_IAA_MARK + 1))


class TestMark:
    def test_mkfs_stores_zero_and_the_first_iaa_insert_raises_it(self):
        fs = make_fs()
        assert image.iaa_mark(fs.dev) == 0
        with Ledger(fs.dev) as led:
            put(fs, "/a", pages()[:2])        # the DAA head, IAA slot 0
            assert max(fs.fact.live_entries()) == fs.fact.daa_size
            assert image.iaa_mark(fs.dev) == fs.fact.iaa_mark == STEP
        assert word_reads(led) == []        # mkfs knows its mark: no read
        check_fs_invariants(fs)

    def test_the_mark_rises_a_page_at_a_time_and_never_falls(self):
        fs = make_fs()
        put(fs, "/a", pages()[:STEP + 1])     # IAA slots 0 .. STEP - 1
        assert image.iaa_mark(fs.dev) == STEP
        put(fs, "/b", pages()[STEP + 1:STEP + 2])     # IAA slot STEP
        assert max(fs.fact.live_entries()) == fs.fact.daa_size + STEP
        assert image.iaa_mark(fs.dev) == 2 * STEP
        fs.unlink("/a")
        fs.unlink("/b")
        assert not fs.fact.live_entries()
        assert image.iaa_mark(fs.dev) == fs.fact.iaa_mark == 2 * STEP
        check_fs_invariants(fs)

    def test_the_mark_stops_at_the_iaa(self):
        dev = PMDevice(32 * PAGE_SIZE, model=DRAM, clock=SimClock())
        geo = Geometry.compute(32, max_inodes=16, with_dedup=True,
                               fact_prefix_bits=5)
        fact = FACT(Superblock.format(dev, geo))    # a 32-slot IAA
        head = fact.head_of(hashlib.sha1(b"x").digest())
        fps = [f for f in (hashlib.sha1(i.to_bytes(4, "little")).digest()
                           for i in range(2000))
               if fact.head_of(f) == head][:2]
        for block, f in enumerate(fps, 1):
            fact.insert(f, block)
        assert image.iaa_mark(dev) == 32

    @pytest.mark.parametrize("how", ["checkpoint", "scan", "unclean"])
    def test_a_mount_reads_the_word_once_and_its_writes_never(self, how):
        fs = make_fs()
        put(fs, "/a", pages()[:3])            # IAA slots 0, 1
        dev = fs.dev
        if how == "unclean":
            dev.crash()
            dev.recover_view()
        else:
            fs.unmount()
        with Ledger(dev) as led:
            fs2 = DeNovaFS.mount(dev, use_checkpoint=how == "checkpoint")
            assert fs2.fact.iaa_mark == STEP and len(word_reads(led)) == 1
            put(fs2, "/b", pages()[3:STEP + 3])   # IAA slots 2 .. STEP + 1
        assert image.iaa_mark(fs2.dev) == 2 * STEP
        assert len(word_reads(led)) == 1
        check_fs_invariants(fs2)

    def test_a_word_of_zero_is_the_whole_iaa(self):
        """An image formatted before the mark: recovery reads the whole
        table, and no insert writes the word."""
        fs = make_fs()
        dev = fs.dev
        dev.write_atomic64(_OFF_IAA_MARK, 0, persist=True)
        dev.crash()
        dev.recover_view()
        fs2 = DeNovaFS.mount(dev)
        assert fs2.fact.iaa_mark == fs2.fact.daa_size
        put(fs2, "/a", pages()[:3])
        assert image.iaa_mark(fs2.dev) is None
        check_fs_invariants(fs2)


class TestMarkInvariant:
    def test_a_valid_slot_at_the_mark_fails(self):
        fs = make_fs()
        put(fs, "/a", pages()[:2])            # IAA slot 0, mark STEP
        fs.sb.set_iaa_mark(0)
        with pytest.raises(InvariantViolation, match="at or above the mark"):
            check_fs_invariants(fs)

    def test_a_mark_past_the_iaa_fails(self):
        fs = make_fs()
        fs.sb.set_iaa_mark(fs.fact.daa_size + 1)
        with pytest.raises(InvariantViolation, match="exceeds the IAA"):
            check_fs_invariants(fs)

    def test_the_check_charges_nothing(self):
        fs = make_fs()
        put(fs, "/a", pages()[:2])
        reads, at = fs.dev.stats.reads, fs.clock.charged_fs
        check_fs_invariants(fs)
        assert (fs.dev.stats.reads, fs.clock.charged_fs) == (reads, at)


class TestRaiseCrashWindow:
    """A crash at every persistence event of a dedup pass whose insert
    raises the mark — before and after each, lines dropped or torn —
    leaves a sound table whose new slot is either linked in its chain or
    free, and a mark that is the old or the new one."""

    @pytest.mark.parametrize("before", [1, STEP + 1],
                             ids=["first-page", "next-page"])
    def test_every_persist_event_of_the_raising_insert(self, before):
        def build():
            fs = make_fs()
            put(fs, "/a", pages()[:before])
            fs.write(fs.create("/b"), 0, pages()[before])
            return fs.dev, fs.daemon.drain

        slot, old = before - 1, before - 1 - (before - 1) % STEP
        outcomes = set()

        def check(dev, point, phase):
            fs = DeNovaFS.mount(dev)
            check_fs_invariants(fs)
            fact = fs.fact
            idx = fact.daa_size + slot
            head = fact.head_of(hashlib.sha1(pages()[0]).digest())
            linked = {e.idx for e in fact.chain(head, silent=True)}
            valid = idx in fact.live_entries()
            assert valid == (idx in linked) != (idx in fact._iaa_free)
            assert image.iaa_mark(fs.dev) in (old, old + STEP)
            outcomes.add(valid)

        assert sweep_crash_points(build, check,
                                  mode=("discard", "torn")) >= 4
        assert outcomes == {True, False}
