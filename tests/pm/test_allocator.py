"""Unit tests for the per-CPU extent page allocator."""

import pytest

from repro.pm import AllocError, PageAllocator


class TestBasic:
    def test_alloc_returns_contiguous_run(self):
        alloc = PageAllocator(0, 100)
        start = alloc.alloc(10)
        assert 0 <= start <= 90
        assert alloc.free_pages == 90

    def test_alloc_free_roundtrip_restores_pages(self):
        alloc = PageAllocator(0, 100)
        s = alloc.alloc(25)
        alloc.free(s, 25)
        assert alloc.free_pages == 100
        assert alloc.largest_extent() == 100  # merged back

    def test_exhaustion_raises(self):
        alloc = PageAllocator(0, 10)
        alloc.alloc(10)
        with pytest.raises(AllocError):
            alloc.alloc(1)

    def test_fragmentation_blocks_large_contig(self):
        alloc = PageAllocator(0, 10)
        runs = [alloc.alloc(2) for _ in range(5)]
        alloc.free(runs[1], 2)
        alloc.free(runs[3], 2)
        assert alloc.free_pages == 4
        with pytest.raises(AllocError):
            alloc.alloc(4)  # free pages exist but not contiguous
        assert alloc.alloc(2) in (runs[1], runs[3])

    def test_bad_args(self):
        with pytest.raises(ValueError):
            PageAllocator(5, 5)
        with pytest.raises(ValueError):
            PageAllocator(0, 10, cpus=0)
        alloc = PageAllocator(0, 10)
        with pytest.raises(ValueError):
            alloc.alloc(0)
        with pytest.raises(ValueError):
            alloc.free(0, 0)
        with pytest.raises(ValueError):
            alloc.free(8, 5)  # beyond range


class TestDoubleFree:
    def test_double_free_detected(self):
        alloc = PageAllocator(0, 100)
        s = alloc.alloc(5)
        alloc.free(s, 5)
        with pytest.raises(ValueError, match="double free"):
            alloc.free(s, 5)

    def test_overlapping_free_detected(self):
        alloc = PageAllocator(0, 100)
        s = alloc.alloc(10)
        alloc.free(s, 5)
        with pytest.raises(ValueError, match="double free"):
            alloc.free(s + 3, 4)


class TestPerCpu:
    def test_pages_split_across_cpus(self):
        alloc = PageAllocator(0, 100, cpus=4)
        assert alloc.free_pages == 100
        for cpu in range(4):
            assert alloc.free_pages_on(cpu) == 25

    def test_local_allocation_preferred(self):
        alloc = PageAllocator(0, 100, cpus=4)
        s = alloc.alloc(5, cpu=2)
        assert 50 <= s < 75  # CPU 2's share
        assert alloc.steals == 0

    def test_steal_when_local_exhausted(self):
        alloc = PageAllocator(0, 100, cpus=4)
        alloc.alloc(25, cpu=0)
        s = alloc.alloc(10, cpu=0)  # must steal
        assert alloc.steals == 1
        assert s >= 25

    def test_cpu_wraps_modulo(self):
        alloc = PageAllocator(0, 100, cpus=4)
        s = alloc.alloc(1, cpu=6)  # 6 % 4 == 2
        assert 50 <= s < 75

    def test_uneven_split_loses_no_pages(self):
        alloc = PageAllocator(0, 103, cpus=4)
        assert alloc.free_pages == 103


class TestIsFree:
    def test_is_free_tracks_allocation(self):
        alloc = PageAllocator(0, 20)
        s = alloc.alloc(5)
        for p in range(s, s + 5):
            assert not alloc.is_free(p)
        alloc.free(s, 5)
        assert all(alloc.is_free(p) for p in range(s, s + 5))


class TestBitmapRecovery:
    def test_from_bitmap_reconstructs_free_runs(self):
        in_use = [False] * 20
        for p in (3, 4, 5, 10, 15):
            in_use[p] = True
        alloc = PageAllocator.from_bitmap(0, 20, in_use, cpus=2)
        assert alloc.free_pages == 15
        for p in (3, 4, 5, 10, 15):
            assert not alloc.is_free(p)
        for p in (0, 6, 11, 16, 19):
            assert alloc.is_free(p)

    def test_from_bitmap_all_used(self):
        alloc = PageAllocator.from_bitmap(0, 5, [True] * 5)
        assert alloc.free_pages == 0

    def test_from_bitmap_respects_lo(self):
        in_use = [True] * 4 + [False] * 6
        alloc = PageAllocator.from_bitmap(4, 10, in_use)
        assert alloc.free_pages == 6
        s = alloc.alloc(6)
        assert s == 4


class TestStressInvariant:
    def test_random_alloc_free_never_loses_pages(self):
        import random

        rng = random.Random(42)
        alloc = PageAllocator(0, 500, cpus=3)
        live: list[tuple[int, int]] = []
        for _ in range(400):
            if live and (rng.random() < 0.45 or alloc.free_pages < 20):
                start, count = live.pop(rng.randrange(len(live)))
                alloc.free(start, count, cpu=rng.randrange(3))
            else:
                count = rng.randint(1, 8)
                try:
                    start = alloc.alloc(count, cpu=rng.randrange(3))
                except AllocError:
                    continue
                live.append((start, count))
            held = sum(c for _, c in live)
            assert alloc.free_pages + held == 500
        # No two live extents overlap.
        spans = sorted(live)
        for (s1, c1), (s2, _c2) in zip(spans, spans[1:]):
            assert s1 + c1 <= s2


# --------------------------------------------------------------------------
# Oracle: a per-page model.  ``owner[page]`` is the CPU whose free list
# holds the page, or None while it is allocated.  A CPU's extents are the
# maximal runs of its pages, found by walking every page — no bisect, no
# counters, nothing shared with the implementation.

class PageModel:
    def __init__(self, lo, hi, cpus):
        self.lo, self.hi, self.cpus = lo, hi, cpus
        self.owner = {}
        share = (hi - lo) // cpus
        for page in range(lo, hi):
            self.owner[page] = min((page - lo) // share, cpus - 1)

    def runs(self):
        """Per-CPU ``[(start, count), ...]``, ascending."""
        out = [[] for _ in range(self.cpus)]
        page = self.lo
        while page < self.hi:
            cpu = self.owner[page]
            end = page + 1
            while end < self.hi and self.owner[end] == cpu:
                end += 1
            if cpu is not None:
                out[cpu].append((page, end - page))
            page = end
        return out

    def alloc(self, count, cpu):
        """Expected first page (first fit, then steal from the fullest)."""
        runs = self.runs()
        free_on = [sum(c for _, c in lst) for lst in runs]
        others = sorted((c for c in range(self.cpus) if c != cpu),
                        key=lambda c: free_on[c], reverse=True)
        for rank, src in enumerate([cpu] + others):
            for start, have in runs[src]:
                if have >= count:
                    for page in range(start, start + count):
                        self.owner[page] = None
                    return start, rank > 0
        return None, False

    def free(self, start, count, cpu):
        for page in range(start, start + count):
            assert self.owner[page] is None
            self.owner[page] = cpu


def _as_tuples(lists):
    return [[(e.start, e.count) for e in lst] for lst in lists]


class TestAgainstPageModel:
    LO, HI, CPUS, OPS = 16, 16 + 1024, 8, 5000

    def test_random_alloc_free_steal_matches_the_model(self):
        import random

        rng = random.Random(20240915)
        alloc = PageAllocator(self.LO, self.HI, cpus=self.CPUS)
        model = PageModel(self.LO, self.HI, self.CPUS)
        live: list[tuple[int, int, int]] = []     # start, count, alloc cpu
        steals = refusals = allocs = frees = 0
        for step in range(self.OPS):
            # Hover near full so local lists run dry and steals happen.
            if live and (alloc.free_pages < 120 or rng.random() < 0.42):
                start, count, by = live.pop(rng.randrange(len(live)))
                # Return it to a CPU other than the one that allocated it,
                # and sometimes in two pieces, so lists interleave.
                cpu = (by + rng.randrange(1, self.CPUS)) % self.CPUS
                cut = rng.randrange(count + 1)
                for s, c in ((start + cut, count - cut), (start, cut)):
                    if c:
                        alloc.free(s, c, cpu=cpu)
                        model.free(s, c, cpu)
                        frees += 1
            else:
                count, cpu = rng.randint(1, 16), rng.randrange(self.CPUS)
                want, stolen = model.alloc(count, cpu)
                before = alloc.steals
                if want is None:
                    refusals += 1
                    with pytest.raises(AllocError):
                        alloc.alloc(count, cpu=cpu)
                else:
                    assert alloc.alloc(count, cpu=cpu) == want, step
                    live.append((want, count, cpu))
                    allocs += 1
                assert alloc.steals - before == int(stolen), step
                steals += stolen
            runs = model.runs()
            # Sorted, disjoint and fully merged: equal to the maximal runs.
            assert _as_tuples(alloc.free_extents()) == runs, step
            assert alloc.free_pages == sum(
                c for lst in runs for _, c in lst), step
            for cpu in range(self.CPUS):
                assert alloc.free_pages_on(cpu) == sum(
                    c for _, c in runs[cpu]), step
            assert alloc.largest_extent() == max(
                (c for lst in runs for _, c in lst), default=0), step
            for page in rng.sample(range(self.LO, self.HI), 12):
                assert alloc.is_free(page) == (
                    model.owner[page] is not None), (step, page)
        assert steals > 50 and refusals > 0     # the sequence was hard enough
        assert (alloc.allocs, alloc.frees, alloc.steals) == (
            allocs, frees, steals)


class TestDoubleFreeEverywhere:
    """The overlap check is exact on every list, for every kind of overlap."""

    @pytest.fixture
    def alloc(self):
        # CPU 0 owns [0, 50), CPU 1 owns [50, 100); take all of CPU 0's
        # pages and hand two runs back to *CPU 1's* list.
        alloc = PageAllocator(0, 100, cpus=2)
        assert alloc.alloc(50, cpu=0) == 0
        alloc.free(10, 5, cpu=1)     # [10, 15)
        alloc.free(20, 5, cpu=1)     # [20, 25)
        return alloc

    @pytest.mark.parametrize("start,count,hit", [
        (10, 5, (10, 15)),     # exact, on the other CPU's list
        (8, 3, (10, 15)),      # tail of the freed run overlaps an extent head
        (14, 3, (10, 15)),     # head of the freed run overlaps an extent tail
        (11, 2, (10, 15)),     # interior of an extent
        (5, 30, (10, 15)),     # spans two extents: reports the first
        (14, 7, (10, 15)),     # tail of one and head of the next
        (17, 5, (20, 25)),
        (45, 10, (50, 100)),   # runs into CPU 1's original share
    ])
    @pytest.mark.parametrize("cpu", [0, 1])
    def test_overlap_is_detected_whichever_list_is_freed_to(
            self, alloc, start, count, hit, cpu):
        before = _as_tuples(alloc.free_extents())
        with pytest.raises(ValueError) as exc:
            alloc.free(start, count, cpu=cpu)
        assert str(exc.value) == (
            f"double free: [{start}, {start + count}) overlaps "
            f"free extent [{hit[0]}, {hit[1]})")
        assert _as_tuples(alloc.free_extents()) == before
        assert alloc.frees == 2 and alloc.free_pages == 60

    def test_subrange_of_a_merged_extent(self):
        alloc = PageAllocator(0, 64)
        assert alloc.alloc(64) == 0
        for start in (0, 16, 8):          # merges into one extent [0, 24)
            alloc.free(start, 8)
        assert _as_tuples(alloc.free_extents()) == [[(0, 24)]]
        for start, count in ((8, 8), (4, 8), (12, 8), (0, 24), (23, 1)):
            with pytest.raises(ValueError, match="double free"):
                alloc.free(start, count)
        alloc.free(24, 8)                 # the neighbour is still fine
        assert _as_tuples(alloc.free_extents()) == [[(0, 32)]]

    def test_neighbours_that_only_touch_are_not_overlaps(self, alloc):
        alloc.free(15, 5, cpu=0)          # exactly between the two runs
        assert _as_tuples(alloc.free_extents()) == [
            [(15, 5)], [(10, 5), (20, 5), (50, 50)]]


def _runs_by_page_walk(lo, hi, in_use):
    """The pre-vectorisation ``from_bitmap`` loop, kept as the reference."""
    runs, run_start = [], None
    for page in range(lo, hi):
        if not in_use[page]:
            if run_start is None:
                run_start = page
        elif run_start is not None:
            runs.append((run_start, page - run_start))
            run_start = None
    if run_start is not None:
        runs.append((run_start, hi - run_start))
    return runs


def _round_robin(runs, cpus):
    lists = [[] for _ in range(cpus)]
    for i, run in enumerate(sorted(runs)):
        lists[i % cpus].append(run)
    return lists


class TestRebuildRoundTrips:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("cpus", [1, 3, 8])
    def test_from_bitmap_matches_the_page_walk(self, seed, cpus):
        import numpy as np

        rng = np.random.default_rng(seed)
        lo, hi = 7, 7 + 600
        bitmap = np.zeros(hi, dtype=bool)
        # Seeds differ in density; 0 and 1 pin both ends of the range.
        bitmap[rng.integers(0, hi, size=40 * (seed + 1))] = True
        bitmap[lo], bitmap[hi - 1] = seed == 0, seed == 1
        want = _round_robin(_runs_by_page_walk(lo, hi, bitmap), cpus)
        for in_use in (bitmap, bitmap.tolist()):
            alloc = PageAllocator.from_bitmap(lo, hi, in_use, cpus=cpus)
            assert _as_tuples(alloc.free_extents()) == want
            assert alloc.cpus == cpus and (alloc.lo, alloc.hi) == (lo, hi)
            assert alloc.free_pages == int((~bitmap[lo:hi]).sum())
            assert (alloc.allocs, alloc.frees, alloc.steals) == (0, 0, 0)
            assert alloc.alloc_log is None

    def test_from_bitmap_all_free_and_all_used(self):
        assert _as_tuples(PageAllocator.from_bitmap(
            2, 9, [False] * 9, cpus=2).free_extents()) == [[(2, 7)], []]
        assert _as_tuples(PageAllocator.from_bitmap(
            2, 9, [True] * 9, cpus=2).free_extents()) == [[], []]

    def _fragmented(self):
        alloc = PageAllocator(0, 400, cpus=4)
        held = [alloc.alloc(3, cpu=c % 4) for c in range(80)]
        for i, start in enumerate(held):
            if i % 3:
                alloc.free(start, 2, cpu=(i + 1) % 4)
        return alloc

    def test_from_free_lists_same_cpu_count(self):
        src = self._fragmented()
        lists = src.free_extents()
        shuffled = [list(reversed(lst)) for lst in lists]   # any order in
        back = PageAllocator.from_free_lists(0, 400, shuffled, cpus=4)
        assert back.free_extents() == lists
        assert back.free_pages == src.free_pages
        assert [back.free_pages_on(c) for c in range(4)] == [
            src.free_pages_on(c) for c in range(4)]
        # ...and it behaves like the original from here on.
        assert back.alloc(3, cpu=2) == src.alloc(3, cpu=2)

    @pytest.mark.parametrize("cpus", [1, 3, 6])
    def test_from_free_lists_other_cpu_count_deals_round_robin(self, cpus):
        src = self._fragmented()
        flat = [run for lst in _as_tuples(src.free_extents()) for run in lst]
        back = PageAllocator.from_free_lists(0, 400, src.free_extents(),
                                             cpus=cpus)
        assert _as_tuples(back.free_extents()) == _round_robin(flat, cpus)
        assert back.free_pages == src.free_pages and back.cpus == cpus


class TestScaling:
    def test_fragmented_free_list_stays_fast(self):
        """20 000 one-page extents: a linear scan per free/is_free takes
        minutes here; the bisect probes take well under a second."""
        import time

        n = 20_000
        alloc = PageAllocator(0, 2 * n, cpus=4)
        for cpu in range(4):
            alloc.alloc(n // 2, cpu=cpu)
        t0 = time.perf_counter()
        for page in range(0, 2 * n, 2):
            alloc.free(page, 1, cpu=page % 3)
        assert alloc.free_pages == n
        assert all(alloc.is_free(p) for p in range(0, 2 * n, 2))
        assert not any(alloc.is_free(p) for p in range(1, 2 * n, 2))
        with pytest.raises(ValueError, match="double free"):
            alloc.free(n, 1, cpu=1)
        assert time.perf_counter() - t0 < 5.0
