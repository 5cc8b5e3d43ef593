"""Unit tests for inode log append / walk / commit semantics."""

import pytest

from repro.nova.entries import ENTRY_SIZE, WriteEntry
from repro.nova.errors import NoSpace
from repro.nova.inode import Inode, InodeTable
from repro.nova.layout import PAGE_SIZE, Geometry, Superblock
from repro.nova.log import ENTRIES_PER_PAGE, LOG_HEADER_SIZE, LogManager
from repro.pm import DRAM, PageAllocator, PMDevice, SimClock
from repro.pm.allocator import AllocError


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


def new_log(log, n):
    """Inode 2's first page, and a reservation for ``n`` appends at its
    first slot: ``(head, tail, res)``."""
    res = log.reserve(0, 0, n, cpu=0)
    head, tail = log.ensure_log(2, 0, res)
    return head, tail, res


def append_n(log, tail, n, res, first=0):
    for i in range(first, first + n):
        _, tail = log.append(2, tail, entry_bytes(i), res)
    return tail


class TestAppend:
    def test_first_append_creates_log(self, env):
        dev, itable, alloc, log = env
        head, tail, res = new_log(log, 1)
        assert head != 0
        assert tail == head * PAGE_SIZE + LOG_HEADER_SIZE
        assert itable.read(2).log_head == head
        addr, new_tail = log.append(2, tail, entry_bytes(0), res)
        assert addr == tail
        assert new_tail == addr + ENTRY_SIZE
        log.commit(2, new_tail)
        assert itable.read(2).log_tail == new_tail

    def test_ensure_log_idempotent_when_head_exists(self, env):
        dev, itable, alloc, log = env
        head, _tail, res = new_log(log, 1)
        head2, tail2 = log.ensure_log(2, head, res)
        assert head2 == head
        assert tail2 == 0

    def test_page_overflow_links_new_page(self, env):
        """The page an append overflows into is the one reserved for it,
        linked when the append reaches it; the append allocates none."""
        dev, itable, alloc, log = env
        head, tail, res = new_log(log, ENTRIES_PER_PAGE + 1)
        (reserved, fresh), = res
        assert fresh and not alloc.is_free(reserved)
        free = alloc.free_pages
        tail = append_n(log, tail, ENTRIES_PER_PAGE, res)
        assert log.next_of(head) == 0           # not linked before it is due
        tail = append_n(log, tail, 1, res, first=ENTRIES_PER_PAGE)
        log.commit(2, tail)
        assert alloc.free_pages == free and not res
        pages = list(log.iter_pages(head))
        assert pages == [head, reserved]
        assert log.next_of(pages[0]) == pages[1]
        slots = list(log.iter_slots(head, tail))
        assert len(slots) == ENTRIES_PER_PAGE + 1

    def test_entries_per_page_is_63(self):
        assert ENTRIES_PER_PAGE == 63

    def test_wrong_entry_size_rejected(self, env):
        dev, itable, alloc, log = env
        head, tail, res = new_log(log, 1)
        with pytest.raises(ValueError):
            log.append(2, tail, b"short", res)

    def test_reserve_takes_a_page_per_boundary(self, env):
        """A first page, then one per boundary the appends cross; a page
        already linked past a full one is followed, not taken."""
        dev, itable, alloc, log = env
        free = alloc.free_pages
        first = log.reserve(0, 0, 0, cpu=0)
        assert len(first) == 1              # a new log's first page
        log.release(first, 0)
        assert alloc.free_pages == free
        head, tail, res = new_log(log, 2 * ENTRIES_PER_PAGE + 1)
        assert [fresh for _p, fresh in res] == [True, True]
        assert alloc.free_pages == free - 3
        tail = append_n(log, tail, ENTRIES_PER_PAGE, res)
        # One slot left before the boundary: nothing to take.
        assert not log.reserve(head, tail - ENTRY_SIZE, 1, cpu=0)
        tail = append_n(log, tail, ENTRIES_PER_PAGE + 1, res,
                        first=ENTRIES_PER_PAGE)
        log.release(res, 0)                 # everything was reached
        assert alloc.free_pages == free - 3
        # Back to the end of page 1: page 2 is linked, page 3 past it too.
        back = head * PAGE_SIZE + PAGE_SIZE
        res = log.reserve(head, back, ENTRIES_PER_PAGE + 1, cpu=0)
        assert res == [(p, False) for p in list(log.iter_pages(head))[1:]]

    def test_a_refused_page_gives_back_the_pages_taken(self, env):
        dev, itable, alloc, log = env
        free = alloc.free_pages
        real, calls = alloc.alloc, []

        def refuse_second(count, cpu=0):
            calls.append(count)
            if len(calls) == 2:
                raise AllocError("refused")
            return real(count, cpu)

        alloc.alloc = refuse_second
        media = dev.read_silent(0, dev.size)
        with pytest.raises(NoSpace):
            log.reserve(0, 0, ENTRIES_PER_PAGE + 1, cpu=0)
        assert alloc.free_pages == free
        assert dev.read_silent(0, dev.size) == media


class TestWalk:
    def test_iter_slots_empty_log(self, env):
        _, _, _, log = env
        assert list(log.iter_slots(0, 0)) == []

    def test_iter_slots_respects_tail(self, env):
        dev, itable, alloc, log = env
        head, tail, res = new_log(log, 5)
        tails = []
        for i in range(5):
            _, tail = log.append(2, tail, entry_bytes(i), res)
            tails.append(tail)
        # Commit only the first three: recovery must not see 4 and 5.
        log.commit(2, tails[2])
        slots = list(log.iter_slots(head, tails[2]))
        assert len(slots) == 3
        got = [WriteEntry.unpack(raw).file_pgoff for _a, raw in slots]
        assert got == [0, 1, 2]

    def test_iter_slots_across_many_pages(self, env):
        dev, itable, alloc, log = env
        n = 3 * ENTRIES_PER_PAGE + 7
        head, tail, res = new_log(log, n)
        tail = append_n(log, tail, n, res)
        log.commit(2, tail)
        slots = list(log.iter_slots(head, tail))
        assert len(slots) == n
        assert [WriteEntry.unpack(r).file_pgoff for _a, r in slots] == \
            list(range(n))

    def test_iter_pages_detects_cycle(self, env):
        dev, itable, alloc, log = env
        head, tail, res = new_log(log, ENTRIES_PER_PAGE + 1)
        append_n(log, tail, ENTRIES_PER_PAGE + 1, res)
        pages = list(log.iter_pages(head))
        # Corrupt: second page points back at the first.
        dev.write_atomic64(pages[1] * PAGE_SIZE, pages[0])
        with pytest.raises(RuntimeError, match="cycle"):
            list(log.iter_pages(head))


class TestCrashSemantics:
    def test_uncommitted_entry_invisible_after_crash(self, env):
        """Fig. 1 atomicity: crash before the tail update hides the entry."""
        dev, itable, alloc, log = env
        head, tail, res = new_log(log, 2)
        _, t1 = log.append(2, tail, entry_bytes(0), res)
        log.commit(2, t1)
        _, t2 = log.append(2, t1, entry_bytes(1), res)
        # Crash before commit of entry 1.
        dev.crash()
        dev.recover_view()
        inode = itable.read(2)
        assert inode.log_tail == t1
        slots = list(log.iter_slots(inode.log_head, inode.log_tail))
        assert len(slots) == 1

    def test_committed_entry_survives_crash(self, env):
        dev, itable, alloc, log = env
        head, tail, res = new_log(log, 1)
        _, t1 = log.append(2, tail, entry_bytes(0), res)
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
        head, tail, res = new_log(log, ENTRIES_PER_PAGE + 1)
        tail = append_n(log, tail, ENTRIES_PER_PAGE, res)
        log.commit(2, tail)
        # This append links the reserved page 2 and stages the entry...
        log.append(2, tail, entry_bytes(99), res)
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
        head, tail, res = new_log(log, 2 * ENTRIES_PER_PAGE + 1)
        tail = append_n(log, tail, 2 * ENTRIES_PER_PAGE + 1, res)
        log.commit(2, tail)
        pages = list(log.iter_pages(head))
        assert len(pages) == 3
        log.link(pages[0], pages[2])            # fast GC's splice
        assert list(log.iter_pages(head)) == [pages[0], pages[2]]
