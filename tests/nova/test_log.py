"""Unit tests for inode log append / walk / commit semantics."""

import pytest

from repro.nova.entries import ENTRY_SIZE, WriteEntry
from repro.nova.inode import Inode, InodeTable
from repro.nova.layout import PAGE_SIZE, Geometry, Superblock
from repro.nova.log import ENTRIES_PER_PAGE, LOG_HEADER_SIZE, LogManager
from repro.pm import DRAM, PageAllocator, PMDevice, SimClock


@pytest.fixture
def env():
    dev = PMDevice(512 * PAGE_SIZE, model=DRAM, clock=SimClock())
    geo = Geometry.compute(512, max_inodes=64)
    Superblock.format(dev, geo)
    itable = InodeTable(dev, geo)
    alloc = PageAllocator(geo.data_start_page, geo.total_pages)
    log = LogManager(dev, alloc, itable)
    itable.write(2, Inode(ino=2, valid=1))
    return dev, itable, alloc, log


def entry_bytes(i):
    return WriteEntry(file_pgoff=i, num_pages=1, block=100 + i,
                      size_after=(i + 1) * PAGE_SIZE, ino=2).pack()


class TestAppend:
    def test_first_append_creates_log(self, env):
        dev, itable, alloc, log = env
        head, tail = log.ensure_log(2, 0, cpu=0)
        assert head != 0
        assert tail == head * PAGE_SIZE + LOG_HEADER_SIZE
        itable.update_log_head(2, head)
        addr, new_tail = log.append(2, tail, entry_bytes(0), cpu=0)
        assert addr == tail
        assert new_tail == addr + ENTRY_SIZE
        log.commit(2, new_tail)
        assert itable.read(2).log_tail == new_tail

    def test_ensure_log_idempotent_when_head_exists(self, env):
        dev, itable, alloc, log = env
        head, _ = log.ensure_log(2, 0, cpu=0)
        head2, tail2 = log.ensure_log(2, head, cpu=0)
        assert head2 == head
        assert tail2 == 0

    def test_page_overflow_links_new_page(self, env):
        dev, itable, alloc, log = env
        head, tail = log.ensure_log(2, 0, cpu=0)
        itable.update_log_head(2, head)
        for i in range(ENTRIES_PER_PAGE + 1):
            _, tail = log.append(2, tail, entry_bytes(i), cpu=0)
        log.commit(2, tail)
        pages = list(log.iter_pages(head))
        assert len(pages) == 2
        assert log.next_of(pages[0]) == pages[1]
        slots = list(log.iter_slots(head, tail))
        assert len(slots) == ENTRIES_PER_PAGE + 1

    def test_entries_per_page_is_63(self):
        assert ENTRIES_PER_PAGE == 63

    def test_wrong_entry_size_rejected(self, env):
        dev, itable, alloc, log = env
        head, tail = log.ensure_log(2, 0, cpu=0)
        with pytest.raises(ValueError):
            log.append(2, tail, b"short", cpu=0)


class TestWalk:
    def test_iter_slots_empty_log(self, env):
        _, _, _, log = env
        assert list(log.iter_slots(0, 0)) == []

    def test_iter_slots_respects_tail(self, env):
        dev, itable, alloc, log = env
        head, tail = log.ensure_log(2, 0, cpu=0)
        itable.update_log_head(2, head)
        tails = []
        for i in range(5):
            _, tail = log.append(2, tail, entry_bytes(i), cpu=0)
            tails.append(tail)
        # Commit only the first three: recovery must not see 4 and 5.
        log.commit(2, tails[2])
        slots = list(log.iter_slots(head, tails[2]))
        assert len(slots) == 3
        got = [WriteEntry.unpack(raw).file_pgoff for _a, raw in slots]
        assert got == [0, 1, 2]

    def test_iter_slots_across_many_pages(self, env):
        dev, itable, alloc, log = env
        head, tail = log.ensure_log(2, 0, cpu=0)
        itable.update_log_head(2, head)
        n = 3 * ENTRIES_PER_PAGE + 7
        for i in range(n):
            _, tail = log.append(2, tail, entry_bytes(i), cpu=0)
        log.commit(2, tail)
        slots = list(log.iter_slots(head, tail))
        assert len(slots) == n
        assert [WriteEntry.unpack(r).file_pgoff for _a, r in slots] == \
            list(range(n))

    def test_iter_pages_detects_cycle(self, env):
        dev, itable, alloc, log = env
        head, tail = log.ensure_log(2, 0, cpu=0)
        for i in range(ENTRIES_PER_PAGE + 1):
            _, tail = log.append(2, tail, entry_bytes(i), cpu=0)
        pages = list(log.iter_pages(head))
        # Corrupt: second page points back at the first.
        dev.write_atomic64(pages[1] * PAGE_SIZE, pages[0])
        with pytest.raises(RuntimeError, match="cycle"):
            list(log.iter_pages(head))


class TestCrashSemantics:
    def test_uncommitted_entry_invisible_after_crash(self, env):
        """Fig. 1 atomicity: crash before the tail update hides the entry."""
        dev, itable, alloc, log = env
        head, tail = log.ensure_log(2, 0, cpu=0)
        itable.update_log_head(2, head)
        _, t1 = log.append(2, tail, entry_bytes(0), cpu=0)
        log.commit(2, t1)
        _, t2 = log.append(2, t1, entry_bytes(1), cpu=0)
        # Crash before commit of entry 1.
        dev.crash()
        dev.recover_view()
        inode = itable.read(2)
        assert inode.log_tail == t1
        slots = list(log.iter_slots(inode.log_head, inode.log_tail))
        assert len(slots) == 1

    def test_committed_entry_survives_crash(self, env):
        dev, itable, alloc, log = env
        head, tail = log.ensure_log(2, 0, cpu=0)
        itable.update_log_head(2, head)
        _, t1 = log.append(2, tail, entry_bytes(0), cpu=0)
        log.commit(2, t1)
        dev.crash()
        dev.recover_view()
        inode = itable.read(2)
        slots = list(log.iter_slots(inode.log_head, inode.log_tail))
        assert len(slots) == 1
        assert WriteEntry.unpack(slots[0][1]).block == 100

    def test_half_linked_extra_page_is_harmless(self, env):
        """Crash after linking a fresh log page but before any commit into
        it: the chain grows but recovery sees only committed entries."""
        dev, itable, alloc, log = env
        head, tail = log.ensure_log(2, 0, cpu=0)
        itable.update_log_head(2, head)
        for i in range(ENTRIES_PER_PAGE):
            _, tail = log.append(2, tail, entry_bytes(i), cpu=0)
        log.commit(2, tail)
        # This append allocates + links page 2 and stages the entry...
        log.append(2, tail, entry_bytes(99), cpu=0)
        dev.crash()  # ...but we crash before commit.
        dev.recover_view()
        inode = itable.read(2)
        slots = list(log.iter_slots(inode.log_head, inode.log_tail))
        assert len(slots) == ENTRIES_PER_PAGE
        # The chain may or may not contain the extra page; either way the
        # walk terminates and every committed entry decodes.
        pages = list(log.iter_pages(inode.log_head))
        assert pages[0] == head


class TestGC:
    def test_unlink_middle_page_splices_chain(self, env):
        dev, itable, alloc, log = env
        head, tail = log.ensure_log(2, 0, cpu=0)
        itable.update_log_head(2, head)
        for i in range(2 * ENTRIES_PER_PAGE + 1):
            _, tail = log.append(2, tail, entry_bytes(i), cpu=0)
        log.commit(2, tail)
        pages = list(log.iter_pages(head))
        assert len(pages) == 3
        dead = log.unlink_middle_page(pages[0], pages[1], pages[2])
        assert dead == pages[1]
        assert list(log.iter_pages(head)) == [pages[0], pages[2]]
