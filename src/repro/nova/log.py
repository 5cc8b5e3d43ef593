"""Per-inode logs: linked lists of 4 KB log pages.

A log page is a 64-byte header (``next`` page pointer) followed by 63
64-byte entry slots.  Appending never overwrites committed entries; the
inode's ``log_tail`` (updated atomically *after* the entry is persistent)
is the single commit point.  Crash anywhere before the tail update leaves
the entry unreachable — NOVA's atomicity argument, which DeNova reuses
for its dedup transactions.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.nova.entries import ENTRY_SIZE
from repro.nova.errors import NoSpace
from repro.nova.inode import InodeTable
from repro.nova.layout import PAGE_SIZE
from repro.pm.allocator import AllocError, PageAllocator
from repro.pm.device import PMDevice

__all__ = ["LogManager", "LOG_HEADER_SIZE", "ENTRIES_PER_PAGE", "chain_slots"]

LOG_HEADER_SIZE = 64
ENTRIES_PER_PAGE = (PAGE_SIZE - LOG_HEADER_SIZE) // ENTRY_SIZE


class LogManager:
    """Reserves, links, walks and appends to inode logs."""

    def __init__(self, dev: PMDevice, allocator: PageAllocator,
                 itable: InodeTable):
        self.dev = dev
        self.allocator = allocator
        self.itable = itable

    # -- page helpers ------------------------------------------------------------

    def next_of(self, page: int) -> int:
        return self.dev.read_u64(page * PAGE_SIZE)

    def link(self, from_page: int, to_page: int) -> None:
        """Durably point ``from_page``'s ``next`` at ``to_page``."""
        self.dev.write_atomic64(from_page * PAGE_SIZE, to_page, persist=True)

    # -- reserve, then append -----------------------------------------------------

    def reserve(self, head: int, tail: int, n: int, cpu: int) -> list:
        """Take, before the operation's first store, every page ``n``
        appends at ``tail`` reach, in order, as ``(page, fresh)``: a first
        page when ``head`` is 0, then per boundary the page linked past
        the full one, else a fresh one.  Each boundary's ``next`` word is
        read here, once (a fresh page's stale one too, never followed).
        A page that cannot be had: the taken ones go back, ``NoSpace``."""
        res: list = []
        try:
            if not head:
                res.append((self.allocator.alloc(1, cpu), True))
                tail = res[0][0] * PAGE_SIZE + LOG_HEADER_SIZE
            used = tail % PAGE_SIZE     # 0: the tail's page is full
            room = (PAGE_SIZE - used) // ENTRY_SIZE if used else 0
            page, fresh = (tail - 1) // PAGE_SIZE, not head
            for _ in range(-(-max(0, n - room) // ENTRIES_PER_PAGE)):
                nxt = self.next_of(page)
                fresh = fresh or nxt == 0
                page = self.allocator.alloc(1, cpu) if fresh else nxt
                res.append((page, fresh))
        except AllocError as exc:
            self.release(res, cpu)
            raise NoSpace(str(exc)) from None
        return res

    def release(self, res: list, cpu: int) -> None:
        """Give back the fresh pages of ``res`` no append reached."""
        for page, fresh in res:
            if fresh:
                self.allocator.free(page, 1, cpu)
        res.clear()

    def ensure_log(self, ino: int, cached_head: int, res: list
                   ) -> tuple[int, int]:
        """Make sure the inode has a log (its first page reserved in
        ``res``); returns (head_page, first_tail)."""
        if cached_head:
            return cached_head, 0
        page, _fresh = res.pop(0)               # a first page is fresh
        self.dev.write_atomic64(page * PAGE_SIZE, 0, persist=True)
        self.itable.update_log_head(ino, page)
        return page, page * PAGE_SIZE + LOG_HEADER_SIZE

    def append(self, ino: int, tail: int, raw: bytes, res: list
               ) -> tuple[int, int]:
        """Write a 64 B entry at ``tail``, persist it, return
        ``(entry_addr, new_tail)``.

        Does **not** update the inode's committed tail — the caller calls
        :meth:`commit` once the whole operation's data is durable (step 3
        of Fig. 1).  A full page moves on to the next page of ``res``,
        linking it when it is fresh; linking early is crash-safe because
        entries past the committed tail are ignored by recovery.
        """
        if len(raw) != ENTRY_SIZE:
            raise ValueError("log entries are exactly 64 bytes")
        if tail % PAGE_SIZE == 0:
            tail = self.next_page(tail, res)
        self.dev.write(tail, raw, persist=True)
        return tail, tail + ENTRY_SIZE

    def next_page(self, tail: int, res: list) -> int:
        """First slot of the reserved page after a full one (``tail`` on
        the page boundary).  A fresh one is linked there once its zeroed
        ``next`` is durable (its stale slots sit past the tail, unread),
        or a crash could graft a garbage chain."""
        page, fresh = res.pop(0)
        if fresh:
            self.dev.write_atomic64(page * PAGE_SIZE, 0, persist=True)
            self.link(tail // PAGE_SIZE - 1, page)
        return page * PAGE_SIZE + LOG_HEADER_SIZE

    def commit(self, ino: int, new_tail: int) -> None:
        """Atomic tail update — the commit point (Fig. 1 step 3)."""
        self.itable.update_log_tail(ino, new_tail)

    # -- walking -----------------------------------------------------------------------

    def iter_slots(self, head_page: int, tail: int
                   ) -> Iterator[tuple[int, bytes]]:
        """Yield ``(addr, raw)`` for every committed entry slot, reading
        each page's committed slots with one device request."""
        if head_page == 0 or tail == 0:
            return iter(())
        return self.page_slots(self.iter_pages(head_page), tail)

    def page_slots(self, pages: Iterable[int], tail: int
                   ) -> Iterator[tuple[int, bytes]]:
        """:meth:`iter_slots` over a chain already walked (``pages``, from
        its head): no ``next`` pointer is read again."""
        tail_page = (tail - 1) // PAGE_SIZE
        for page in pages:
            base = page * PAGE_SIZE
            start = base + LOG_HEADER_SIZE
            end = tail if page == tail_page else base + PAGE_SIZE
            n = (end - start) // ENTRY_SIZE * ENTRY_SIZE
            if n > 0:
                run = self.dev.read(start, n)
                for off in range(0, n, ENTRY_SIZE):
                    yield start + off, run[off:off + ENTRY_SIZE]
            if page == tail_page:
                return

    def iter_pages(self, head_page: int) -> Iterator[int]:
        """Yield every page in the chain (including any past the tail)."""
        page = head_page
        seen = set()
        while page:
            if page in seen:
                raise RuntimeError(f"log page cycle at page {page}")
            seen.add(page)
            yield page
            page = int.from_bytes(self.dev.read(page * PAGE_SIZE, 8), "little")

    def iter_chain(self, head_page: int, tail: int
                   ) -> Iterator[tuple[int, bytes]]:
        """Walk a chain only as far as recovery can trust it: yield
        ``(page, run)``, ``run`` the page from its header to ``tail`` (to
        the page end before the tail's page) in one request, or empty past
        the tail's page, where only the ``next`` pointer is read.

        ``InodeTable.release`` clears just the valid byte, so a torn record
        write into a reused slot can revive the dead incarnation's
        ``log_head`` — by now possibly another file's data page, whose
        first word is no ``next`` pointer.  Stop at a page outside the data
        region (the allocator's range) or a revisit instead of raising
        (:meth:`iter_pages`) or reading off the device.
        """
        tail_page = (tail - 1) // PAGE_SIZE
        seen: set[int] = set()
        page = head_page
        while (self.allocator.lo <= page < self.allocator.hi
               and page not in seen):
            base = page * PAGE_SIZE
            if tail_page in seen:                   # past the tail's page
                run, nxt = b"", self.next_of(page)
            else:
                end = tail if page == tail_page else base + PAGE_SIZE
                run = self.dev.read(base, end - base)
                nxt = int.from_bytes(run[:8], "little")
            seen.add(page)
            yield page, run
            page = nxt


def chain_slots(chain: Iterable[tuple[int, bytes]], tail: int
                ) -> Iterator[tuple[int, bytes]]:
    """Yield ``(addr, raw)`` for every committed slot in the runs of
    :meth:`LogManager.iter_chain`.  ``tail`` bounds them, not a run's
    length: a whole page read for a rebuilt tail holds stale slots too."""
    if tail == 0:
        return
    tail_page = (tail - 1) // PAGE_SIZE
    for page, run in chain:
        base = page * PAGE_SIZE
        end = tail - base if page == tail_page else PAGE_SIZE
        for off in range(LOG_HEADER_SIZE, end - ENTRY_SIZE + 1, ENTRY_SIZE):
            yield base + off, run[off:off + ENTRY_SIZE]
        if page == tail_page:
            return
