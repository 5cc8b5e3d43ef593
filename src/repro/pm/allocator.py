"""NOVA's per-CPU free page lists.

NOVA partitions the device's pages across per-CPU free lists so allocation
normally takes no shared lock.  A write entry records one *contiguous* run
of data pages, so allocation is extent-based: first-fit within the calling
CPU's list, falling back to stealing the largest extent from the fullest
other list when the local list cannot satisfy the request.

The allocator itself is DRAM state (NOVA rebuilds it from a log scan at
recovery), so it carries no persistence logic — :mod:`repro.nova.recovery`
reconstructs it from the in-use page bitmap.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from operator import attrgetter
from typing import Optional

import numpy as np

__all__ = ["PageAllocator", "AllocError", "Extent"]


_START = attrgetter("start")


class AllocError(Exception):
    """Raised when the device has no free extent large enough."""


@dataclass(frozen=True)
class Extent:
    """A contiguous run of free pages: ``[start, start + count)``."""

    start: int
    count: int

    @property
    def end(self) -> int:
        return self.start + self.count


class PageAllocator:
    """Extent-based per-CPU free lists over page numbers ``[lo, hi)``.

    Each CPU's list is two parallel ``int`` lists (``starts``, ``counts``)
    kept sorted by start and disjoint — the flat-array stand-in for the
    red-black tree of ranges NOVA keeps per CPU.  On such a list only the
    extent that begins at or before a page can contain it, so
    :meth:`is_free`, the double-free check of :meth:`free` and its insert
    position are one ``bisect`` probe per list: O(cpus · log n) for *n*
    free extents.  :meth:`alloc` stays a first-fit scan (the order pages
    are handed out in is part of every image), and the free-page totals
    are running counters.
    """

    def __init__(self, lo: int, hi: int, cpus: int = 1):
        if hi <= lo:
            raise ValueError("empty page range")
        if cpus < 1:
            raise ValueError("cpus must be >= 1")
        total = hi - lo
        share = total // cpus
        lists: list[list[Extent]] = []
        for cpu in range(cpus):
            count = share if cpu < cpus - 1 else total - cpu * share
            lists.append([Extent(lo + cpu * share, count)] if count else [])
        self._reset(lo, hi, lists)

    def _reset(self, lo: int, hi: int, lists: list[list[Extent]]) -> None:
        """Install ``lists`` (one per CPU, each sorted by start, disjoint)."""
        self.lo = lo
        self.hi = hi
        self.cpus = len(lists)
        self._starts: list[list[int]] = [[e.start for e in lst]
                                         for lst in lists]
        self._counts: list[list[int]] = [[e.count for e in lst]
                                         for lst in lists]
        self._free: list[int] = [sum(counts) for counts in self._counts]
        self.allocs = 0
        self.frees = 0
        self.steals = 0
        self.alloc_log: Optional[list[Extent]] = None

    def attach_registry(self, registry) -> None:
        """Expose allocator state as callback-backed metrics.

        Callback-backed (rather than pushed) so alloc/free hot paths
        stay untouched; re-callable because recovery *rebuilds* the
        allocator via :meth:`from_bitmap` — the filesystem re-attaches
        the new instance and the metric names keep working.
        """
        registry.gauge_fn("alloc.free_pages", lambda: self.free_pages,
                          help="pages currently on the per-CPU free lists")
        registry.counter_fn("alloc.allocs_total", lambda: self.allocs,
                            help="extent allocations served")
        registry.counter_fn("alloc.frees_total", lambda: self.frees,
                            help="extent frees")
        registry.counter_fn("alloc.steals_total", lambda: self.steals,
                            help="cross-CPU extent steals")

    # -- queries ---------------------------------------------------------------

    @property
    def free_pages(self) -> int:
        return sum(self._free)

    def free_pages_on(self, cpu: int) -> int:
        return self._free[cpu]

    def largest_extent(self) -> int:
        return max((max(counts) for counts in self._counts if counts),
                   default=0)

    def _overlap(self, cpu: int, start: int, end: int) -> Optional[int]:
        """Index of the first extent on ``cpu``'s list meeting ``[start, end)``.

        Extents are sorted and disjoint, so the only candidates are the
        last one beginning at or before ``start`` and the one after it.
        """
        starts = self._starts[cpu]
        i = bisect_right(starts, start)
        if i and starts[i - 1] + self._counts[cpu][i - 1] > start:
            return i - 1
        if i < len(starts) and starts[i] < end:
            return i
        return None

    def is_free(self, page: int) -> bool:
        for cpu in range(self.cpus):
            if self._overlap(cpu, page, page + 1) is not None:
                return True
        return False

    def home_cpu(self, page: int) -> int:
        """CPU owning ``page`` under the static mkfs partition.

        Frees that cannot name the allocating CPU (scrub, GC of
        long-dead extents) return pages here so large reclaims do not
        pile everything onto CPU 0.
        """
        if not self.lo <= page < self.hi:
            raise ValueError(f"page {page} outside [{self.lo}, {self.hi})")
        share = (self.hi - self.lo) // self.cpus
        if share == 0:
            return 0
        return min((page - self.lo) // share, self.cpus - 1)

    def free_extents(self) -> list[list[Extent]]:
        """Per-CPU free lists as plain extent lists (checkpoint snapshot)."""
        return [[Extent(s, c) for s, c in zip(starts, counts)]
                for starts, counts in zip(self._starts, self._counts)]

    # -- allocation ------------------------------------------------------------

    def alloc(self, count: int, cpu: int = 0) -> int:
        """Allocate ``count`` contiguous pages, preferring ``cpu``'s list.

        Returns the first page number.  Raises :class:`AllocError` when no
        single free extent can hold the run (the filesystem treats that as
        ENOSPC; it does not split writes across extents because one write
        entry describes one contiguous run).
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        cpu %= self.cpus
        start = self._take_from(cpu, count)
        if start is None:
            # Steal: scan other lists, fullest first, for a fitting extent.
            order = sorted(
                (c for c in range(self.cpus) if c != cpu),
                key=self.free_pages_on,
                reverse=True,
            )
            for other in order:
                start = self._take_from(other, count)
                if start is not None:
                    self.steals += 1
                    break
        if start is None:
            raise AllocError(
                f"no contiguous extent of {count} pages "
                f"({self.free_pages} pages free, largest extent "
                f"{self.largest_extent()})"
            )
        self.allocs += 1
        if self.alloc_log is not None:
            self.alloc_log.append(Extent(start, count))
        return start

    def _take_from(self, cpu: int, count: int) -> Optional[int]:
        """Carve ``count`` pages off the first extent of ``cpu`` that fits."""
        if self._free[cpu] < count:
            return None
        counts = self._counts[cpu]
        for i, have in enumerate(counts):
            if have >= count:
                starts = self._starts[cpu]
                start = starts[i]
                if have == count:
                    del starts[i], counts[i]
                else:
                    starts[i] = start + count
                    counts[i] = have - count
                self._free[cpu] -= count
                return start
        return None

    # -- free --------------------------------------------------------------------

    def free(self, start: int, count: int, cpu: int = 0) -> None:
        """Return ``[start, start+count)`` to ``cpu``'s list, merging extents."""
        if count < 1:
            raise ValueError("count must be >= 1")
        end = start + count
        if start < self.lo or end > self.hi:
            raise ValueError(f"free of [{start}, {end}) outside range")
        cpu %= self.cpus
        # Overlap check against every list: double frees corrupt filesystems
        # silently, so fail loudly here instead.
        for other in range(self.cpus):
            hit = self._overlap(other, start, end)
            if hit is not None:
                ext_start = self._starts[other][hit]
                raise ValueError(
                    f"double free: [{start}, {end}) overlaps free extent "
                    f"[{ext_start}, {ext_start + self._counts[other][hit]})"
                )
        self.frees += 1
        self._free[cpu] += count
        # Insert sorted by start, merging with the neighbours it touches.
        starts, counts = self._starts[cpu], self._counts[cpu]
        i = bisect_right(starts, start)
        if i < len(starts) and starts[i] == end:
            count += counts[i]
            del starts[i], counts[i]
        if i and starts[i - 1] + counts[i - 1] == start:
            counts[i - 1] += count
        else:
            starts.insert(i, start)
            counts.insert(i, count)

    # -- recovery ---------------------------------------------------------------

    @classmethod
    def from_bitmap(cls, lo: int, hi: int, in_use, cpus: int = 1
                    ) -> "PageAllocator":
        """Rebuild free lists from an in-use bitmap (recovery path).

        ``in_use`` is indexable by page number; truthy means occupied.
        Free runs are distributed round-robin across CPUs to re-balance.
        """
        used = np.ones(hi - lo + 2, dtype=bool)  # occupied sentinels
        used[1:-1] = in_use[lo:hi]
        # A run starts where used falls to free and ends where it rises.
        edges = np.flatnonzero(np.diff(used)) + lo
        runs = [Extent(s, e - s) for s, e in
                zip(edges[::2].tolist(), edges[1::2].tolist())]
        return cls._round_robin(lo, hi, runs, cpus)

    @classmethod
    def from_free_lists(cls, lo: int, hi: int,
                        lists: list[list[Extent]], cpus: int = 1
                        ) -> "PageAllocator":
        """Rebuild from checkpointed per-CPU free lists (clean remount).

        When the checkpoint was written under a different CPU count the
        extents are redistributed round-robin, mirroring
        :meth:`from_bitmap`'s re-balancing.
        """
        if len(lists) != cpus:
            flat = sorted((e for lst in lists for e in lst),
                          key=_START)
            return cls._round_robin(lo, hi, flat, cpus)
        alloc = cls.__new__(cls)
        alloc._reset(lo, hi, [sorted(lst, key=_START) for lst in lists])
        return alloc

    @classmethod
    def _round_robin(cls, lo: int, hi: int, runs: list[Extent], cpus: int
                     ) -> "PageAllocator":
        """Deal ``runs`` (sorted by start) out to ``cpus`` lists in turn."""
        alloc = cls.__new__(cls)
        alloc._reset(lo, hi, [runs[cpu::cpus] for cpu in range(cpus)])
        return alloc
