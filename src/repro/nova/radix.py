"""The per-file DRAM index (NOVA's radix tree).

NOVA keeps a DRAM radix tree per inode mapping file page offsets to the
write entry (and thus data page) holding that page's current contents.
A Python dict gives the same asymptotics; what matters for the model is
the *cost accounting* — each slot touch charges a DRAM structure access,
so index work shows up in simulated latencies the way radix-node walks
do on the real system.

The index also does the bookkeeping CoW depends on: when a new write
entry claims a range, :meth:`FileIndex.install` reports which device
pages were displaced (grouped into contiguous extents for the free list)
and tracks how many live pages each log entry still has, which drives
log-page garbage collection.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from repro.nova.entries import WriteEntry
from repro.nova.inode import ITYPE_FILE
from repro.pm.clock import SimClock
from repro.pm.latency import CpuModel

__all__ = ["FileIndex", "Displaced", "extend_runs", "page_refs"]


@dataclass
class Displaced:
    """Result of installing a write entry / trimming the index."""

    extents: list[tuple[int, int]]        # (device page, count) now obsolete
    dead_entries: list[int]               # log entry addrs with 0 live pages

    @property
    def total_pages(self) -> int:
        return sum(c for _, c in self.extents)

    @classmethod
    def join(cls, parts: Iterable["Displaced"]) -> "Displaced":
        """One operation's displacements: the parts' extents in order, one
        that starts where the last ends joined to it (a repeated page
        stays its own extent, as :func:`_group` keeps it)."""
        extents: list[tuple[int, int]] = []
        dead: list[int] = []
        for part in parts:
            for start, count in part.extents:
                if extents and sum(extents[-1]) == start:
                    extents[-1] = (extents[-1][0], extents[-1][1] + count)
                else:
                    extents.append((start, count))
            dead += part.dead_entries
        return cls(extents=extents, dead_entries=dead)


class FileIndex:
    """Maps file page offset -> (entry addr, entry) for one file."""

    def __init__(self, cpu: CpuModel, clock: SimClock):
        self._cpu = cpu
        self._clock = clock
        self._slots: dict[int, tuple[int, WriteEntry]] = {}
        self._live_pages: dict[int, int] = {}  # entry addr -> live page count

    def __len__(self) -> int:
        return len(self._slots)

    @property
    def mapped_offsets(self) -> list[int]:
        return sorted(self._slots)

    def mappings(self) -> Iterator[tuple[int, int, int]]:
        """Every mapped page as ``(pgoff, entry addr, device page)``:
        unordered, uncharged — for censuses, never the data path."""
        return ((p, a, e.block_for(p)) for p, (a, e) in self._slots.items())

    def lookup(self, pgoff: int) -> Optional[tuple[int, WriteEntry]]:
        """Find the entry covering file page ``pgoff`` (None = hole)."""
        self._clock.advance(self._cpu.dram_touch_ns)
        return self._slots.get(pgoff)

    def block_of(self, pgoff: int) -> Optional[int]:
        """Device page currently holding file page ``pgoff``."""
        hit = self.lookup(pgoff)
        return hit[1].block_for(pgoff) if hit else None

    def entry_live_pages(self, addr: int) -> int:
        return self._live_pages.get(addr, 0)

    # -- mutation -------------------------------------------------------------------

    def install(self, addr: int, entry: WriteEntry) -> Displaced:
        """Point ``[file_pgoff, +num_pages)`` at ``entry`` (Fig. 1 step 4).

        Returns the displaced device pages: with CoW, every page the new
        entry covers is *fully* superseded (partial head/tail content was
        copied into the new pages before commit).
        """
        obsolete: list[int] = []
        dead: list[int] = []
        # One slot touch per page; nothing else in the loop charges.
        self._clock.advance_n(self._cpu.dram_touch_ns, entry.num_pages)
        for pgoff in range(entry.file_pgoff,
                           entry.file_pgoff + entry.num_pages):
            old = self._slots.get(pgoff)
            self._slots[pgoff] = (addr, entry)
            if old is not None:
                old_addr, old_entry = old
                obsolete.append(old_entry.block_for(pgoff))
                remaining = self._live_pages[old_addr] - 1
                if remaining:
                    self._live_pages[old_addr] = remaining
                else:
                    del self._live_pages[old_addr]
                    dead.append(old_addr)
        self._live_pages[addr] = entry.num_pages
        return Displaced(extents=_group(obsolete), dead_entries=dead)

    def redirect(self, pgoff: int, addr: int, entry: WriteEntry
                 ) -> Displaced:
        """Repoint a single page at a dedup-appended entry (Algorithm 1).

        Unlike :meth:`install`, the displaced old page is the *duplicate*
        data page the dedup process will reclaim.
        """
        if entry.num_pages != 1:
            raise ValueError("redirect installs single-page entries")
        return self.install(addr, entry)

    def truncate_pages(self, keep_pages: int) -> Displaced:
        """Drop mappings at ``pgoff >= keep_pages`` (setattr replay)."""
        obsolete: list[int] = []
        dead: list[int] = []
        dropped = [p for p in self._slots if p >= keep_pages]
        self._clock.advance_n(self._cpu.dram_touch_ns, len(dropped))
        for pgoff in dropped:
            addr, entry = self._slots.pop(pgoff)
            obsolete.append(entry.block_for(pgoff))
            remaining = self._live_pages[addr] - 1
            if remaining:
                self._live_pages[addr] = remaining
            else:
                del self._live_pages[addr]
                dead.append(addr)
        return Displaced(extents=_group(obsolete), dead_entries=dead)

    def clear(self) -> Displaced:
        """Drop every mapping (unlink replay)."""
        return self.truncate_pages(0)

    def referenced_pages(self) -> set[int]:
        """All device pages the current index references (recovery bitmap)."""
        return {block for _pgoff, _addr, block in self.mappings()}


def page_refs(fs) -> Counter:
    """The live-reference census: device page -> number of file page
    mappings onto it, over every regular file (what RFCs must cover)."""
    return Counter(block for cache in fs.caches.values()
                   if cache.inode.itype == ITYPE_FILE
                   for _pgoff, _addr, block in cache.index.mappings())


def extend_runs(runs: list[list[int]], pgoff: int, block: int) -> None:
    """Add one page to ``[pgoff, block, count]`` runs: the last run grows
    while both the file offset and the device page advance by one."""
    if runs and runs[-1][0] + runs[-1][2] == pgoff \
            and runs[-1][1] + runs[-1][2] == block:
        runs[-1][2] += 1
    else:
        runs.append([pgoff, block, 1])


def _group(pages: list[int]) -> list[tuple[int, int]]:
    """Group page numbers into (start, count) extents.

    Multiplicity is preserved: after dedup, several slots of one file can
    point at the same canonical block, and displacing each slot drops one
    reference — a repeated page yields repeated single-page extents, and
    the RFC-checked reclaim consumes that multiplicity as a count (one
    ``RFC -= n`` per page), or shared canonical entries leak with a stale
    count.
    """
    if not pages:
        return []
    pages = sorted(pages)
    extents: list[tuple[int, int]] = []
    start = prev = pages[0]
    for p in pages[1:]:
        if p == prev + 1:
            prev = p
            continue
        extents.append((start, prev - start + 1))
        start = prev = p
    extents.append((start, prev - start + 1))
    return extents
