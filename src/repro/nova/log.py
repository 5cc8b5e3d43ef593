"""Per-inode logs: linked lists of 4 KB log pages.

A log page is a 64-byte header (``next`` page pointer) followed by 63
64-byte entry slots.  Appending never overwrites committed entries; the
inode's ``log_tail`` (updated atomically *after* the entry is persistent)
is the single commit point.  Crash anywhere before the tail update leaves
the entry unreachable — NOVA's atomicity argument, which DeNova reuses
for its dedup transactions.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from repro.nova.entries import ENTRY_SIZE
from repro.nova.inode import InodeTable
from repro.nova.layout import PAGE_SIZE
from repro.pm.allocator import PageAllocator
from repro.pm.device import PMDevice

__all__ = ["LogManager", "LOG_HEADER_SIZE", "ENTRIES_PER_PAGE"]

LOG_HEADER_SIZE = 64
ENTRIES_PER_PAGE = (PAGE_SIZE - LOG_HEADER_SIZE) // ENTRY_SIZE


class LogManager:
    """Allocates, links, walks and appends to inode logs."""

    def __init__(self, dev: PMDevice, allocator: PageAllocator,
                 itable: InodeTable):
        self.dev = dev
        self.allocator = allocator
        self.itable = itable

    # -- page helpers ------------------------------------------------------------

    def _new_log_page(self, cpu: int) -> int:
        page = self.allocator.alloc(1, cpu)
        base = page * PAGE_SIZE
        # Only the header needs initializing: entry validity is bounded
        # by the committed tail, so stale bytes past it are never read.
        # The zeroed next-pointer must be durable before the page is
        # linked, or a crash could graft a garbage chain.
        self.dev.write_atomic64(base, 0, persist=True)
        return page

    def next_of(self, page: int) -> int:
        return self.dev.read_u64(page * PAGE_SIZE)

    def _link(self, from_page: int, to_page: int) -> None:
        self.dev.write_atomic64(from_page * PAGE_SIZE, to_page, persist=True)

    # -- append ---------------------------------------------------------------------

    def ensure_log(self, ino: int, cached_head: int, cpu: int
                   ) -> tuple[int, int]:
        """Make sure the inode has a log; returns (head_page, first_tail)."""
        if cached_head:
            return cached_head, 0
        page = self._new_log_page(cpu)
        self.itable.update_log_head(ino, page)
        return page, page * PAGE_SIZE + LOG_HEADER_SIZE

    def append(self, ino: int, tail: int, raw: bytes, cpu: int) -> tuple[int, int]:
        """Write a 64 B entry at ``tail``, persist it, return
        ``(entry_addr, new_tail)``.

        Does **not** update the inode's committed tail — the caller calls
        :meth:`commit` once the whole operation's data is durable (step 3
        of Fig. 1).  Allocates and links a fresh log page when the current
        one is full; linking early is crash-safe because entries past the
        committed tail are ignored by recovery.
        """
        if len(raw) != ENTRY_SIZE:
            raise ValueError("log entries are exactly 64 bytes")
        if tail % PAGE_SIZE == 0:
            tail = self._next_page(tail, cpu)
        addr = tail
        self.dev.write(addr, raw, persist=True)
        return addr, addr + ENTRY_SIZE

    def _next_page(self, tail: int, cpu: int) -> int:
        """First slot of the page after a full one (``tail`` on the page
        boundary), linking a fresh page there if none is linked yet."""
        prev_page = tail // PAGE_SIZE - 1
        nxt = self.next_of(prev_page)
        if nxt == 0:
            nxt = self._new_log_page(cpu)
            self._link(prev_page, nxt)
        return nxt * PAGE_SIZE + LOG_HEADER_SIZE

    def reserve(self, ino: int, head: int, tail: int, cpu: int
                ) -> tuple[int, int]:
        """Allocate now the page the next append would: a first page
        (:meth:`ensure_log`), or the next one when ``tail`` sits on a page
        boundary.  Returns the ``(head_page, tail)`` to append at.  A page
        linked past the committed tail is crash-safe, as in
        :meth:`append`, and :meth:`iter_pages` counts it as the log's."""
        if not head:
            return self.ensure_log(ino, head, cpu)
        if tail % PAGE_SIZE == 0:
            tail = self._next_page(tail, cpu)
        return head, tail

    def commit(self, ino: int, new_tail: int) -> None:
        """Atomic tail update — the commit point (Fig. 1 step 3)."""
        self.itable.update_log_tail(ino, new_tail)

    # -- walking -----------------------------------------------------------------------

    def iter_slots(self, head_page: int, tail: int, silent: bool = False,
                   pages: Optional[Iterable[int]] = None
                   ) -> Iterator[tuple[int, bytes]]:
        """Yield ``(addr, raw)`` for every committed entry slot.

        ``pages`` is the chain when the caller has walked it already
        (recovery's :meth:`iter_chain`), so no header is read again.
        ``silent=True`` walks without charging device costs (used by test
        invariant checkers, never by filesystem code).
        """
        if head_page == 0 or tail == 0:
            return
        read = self.dev.read_silent if silent else self.dev.read
        tail_page = (tail - 1) // PAGE_SIZE
        if pages is None:
            pages = self.iter_pages(head_page, silent)
        for page in pages:
            base = page * PAGE_SIZE
            end = tail if page == tail_page else base + PAGE_SIZE
            for addr in range(base + LOG_HEADER_SIZE, end - ENTRY_SIZE + 1,
                              ENTRY_SIZE):
                yield addr, read(addr, ENTRY_SIZE)
            if page == tail_page:
                return

    def iter_pages(self, head_page: int, silent: bool = False
                   ) -> Iterator[int]:
        """Yield every page in the chain (including any past the tail)."""
        read = self.dev.read_silent if silent else self.dev.read
        page = head_page
        seen = set()
        while page:
            if page in seen:
                raise RuntimeError(f"log page cycle at page {page}")
            seen.add(page)
            yield page
            page = int.from_bytes(read(page * PAGE_SIZE, 8), "little")

    def iter_chain(self, head_page: int) -> Iterator[int]:
        """Walk a chain only as far as recovery can trust it.

        ``InodeTable.release`` clears just the valid byte, so a torn record
        write into a reused slot can revive the dead incarnation's
        ``log_head`` — by now possibly another file's data page, whose
        first word is no ``next`` pointer.  Stop at a page outside the data
        region (the allocator's range) or a revisit instead of raising
        (:meth:`iter_pages`) or reading off the device; one charged read
        per step, like it.
        """
        seen: set[int] = set()
        page = head_page
        while (self.allocator.lo <= page < self.allocator.hi
               and page not in seen):
            seen.add(page)
            yield page
            page = self.next_of(page)

    # -- garbage collection ---------------------------------------------------------------

    def unlink_middle_page(self, prev_page: int, dead_page: int) -> int:
        """Fast GC: splice a fully-invalid page out of the chain.

        Returns the spliced page so the caller can free it *after* the new
        link is durable.  Crash before the link persists leaves the old
        (still valid) chain; crash after leaves the shorter chain — both
        consistent.
        """
        nxt = self.next_of(dead_page)
        self._link(prev_page, nxt)
        return dead_page
