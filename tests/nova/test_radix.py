"""Unit tests for the DRAM file index (radix tree model)."""

import pytest

from repro.nova.entries import WriteEntry
from repro.nova.radix import FileIndex, _group
from repro.pm import SimClock
from repro.pm.latency import CpuModel
from tests.pm.test_clock import clock_at


def idx():
    return FileIndex(CpuModel(), SimClock())


def we(pgoff, npages, block, ino=1):
    return WriteEntry(file_pgoff=pgoff, num_pages=npages, block=block,
                      size_after=(pgoff + npages) * 4096, ino=ino)


class TestInstall:
    def test_fresh_install_displaces_nothing(self):
        ix = idx()
        d = ix.install(0x1000, we(0, 3, 100))
        assert d.extents == []
        assert d.dead_entries == []
        assert ix.block_of(0) == 100
        assert ix.block_of(2) == 102
        assert ix.block_of(3) is None

    def test_full_overwrite_displaces_old_pages_and_entry(self):
        ix = idx()
        ix.install(0x1000, we(0, 3, 100))
        d = ix.install(0x2000, we(0, 3, 200))
        assert d.extents == [(100, 3)]
        assert d.dead_entries == [0x1000]
        assert ix.block_of(1) == 201

    def test_partial_overwrite_keeps_entry_alive(self):
        ix = idx()
        ix.install(0x1000, we(0, 4, 100))
        d = ix.install(0x2000, we(1, 2, 200))
        assert d.extents == [(101, 2)]
        assert d.dead_entries == []
        assert ix.entry_live_pages(0x1000) == 2
        assert ix.block_of(0) == 100
        assert ix.block_of(1) == 200
        assert ix.block_of(3) == 103

    def test_noncontiguous_displacement_groups_extents(self):
        ix = idx()
        ix.install(0x1000, we(0, 1, 100))
        ix.install(0x1100, we(1, 1, 500))
        ix.install(0x1200, we(2, 1, 101))
        d = ix.install(0x2000, we(0, 3, 200))
        assert d.extents == [(100, 2), (500, 1)]
        assert sorted(d.dead_entries) == [0x1000, 0x1100, 0x1200]

    def test_mapped_offsets_sorted(self):
        ix = idx()
        ix.install(0x1000, we(5, 2, 100))
        ix.install(0x2000, we(0, 1, 300))
        assert ix.mapped_offsets == [0, 5, 6]
        assert len(ix) == 3

    def test_lookup_charges_dram_cost(self):
        clock = SimClock()
        ix = FileIndex(CpuModel(), clock)
        ix.install(0x1000, we(0, 1, 100))
        t = clock.now_ns
        ix.lookup(0)
        assert clock.now_ns > t


class TestRedirect:
    def test_redirect_single_page(self):
        ix = idx()
        ix.install(0x1000, we(0, 2, 100))
        d = ix.redirect(1, 0x2000, we(1, 1, 999))
        assert d.extents == [(101, 1)]
        assert ix.block_of(1) == 999
        assert ix.block_of(0) == 100

    def test_redirect_rejects_multipage(self):
        ix = idx()
        with pytest.raises(ValueError):
            ix.redirect(0, 0x2000, we(0, 2, 999))


class TestTruncate:
    def test_truncate_drops_tail_mappings(self):
        ix = idx()
        ix.install(0x1000, we(0, 4, 100))
        d = ix.truncate_pages(2)
        assert d.extents == [(102, 2)]
        assert ix.block_of(1) == 101
        assert ix.block_of(2) is None
        assert ix.entry_live_pages(0x1000) == 2

    def test_truncate_to_zero_kills_entry(self):
        ix = idx()
        ix.install(0x1000, we(0, 2, 100))
        d = ix.truncate_pages(0)
        assert d.dead_entries == [0x1000]
        assert len(ix) == 0

    def test_clear_equals_truncate_zero(self):
        ix = idx()
        ix.install(0x1000, we(3, 2, 100))
        d = ix.clear()
        assert d.extents == [(100, 2)]
        assert len(ix) == 0


class TestReferencedPages:
    def test_referenced_pages_union(self):
        ix = idx()
        ix.install(0x1000, we(0, 2, 100))
        ix.install(0x2000, we(5, 1, 400))
        assert ix.referenced_pages() == {100, 101, 400}

    def test_shared_block_counted_once(self):
        """After dedup two file pages can point at one device page."""
        ix = idx()
        ix.install(0x1000, we(0, 1, 100))
        ix.install(0x2000, we(1, 1, 100))
        assert ix.referenced_pages() == {100}


class TestGroup:
    def test_group_empty(self):
        assert _group([]) == []

    def test_group_merges_runs(self):
        assert _group([5, 3, 4, 9, 10, 1]) == [(1, 1), (3, 3), (9, 2)]

    def test_group_preserves_multiplicity(self):
        # After dedup several slots can share one canonical block; each
        # displaced slot is one dropped reference, so the RFC-checked
        # reclaim must see the page once per slot (found by the fuzzer:
        # collapsing duplicates leaked shared FACT entries on overwrite).
        assert _group([2, 2, 3]) == [(2, 1), (2, 2)]
        assert _group([7, 7]) == [(7, 1), (7, 1)]
        assert sum(c for _, c in _group([2, 2, 3, 9, 9, 9])) == 6


class TestPerPageChargesAreFolded:
    """``install`` / ``truncate_pages`` touch one slot per page:
    ``advance_n(dram_touch_ns, pages)`` before the loop must leave the
    clock where a charge per page inside it did."""

    @pytest.mark.parametrize("pages", [1, 8, 32])
    @pytest.mark.parametrize("start_ns", [0.0, 1234.5678])
    def test_charged_ns_equals_the_per_page_loop(self, pages, start_ns):
        cpu = CpuModel(dram_touch_ns=0.1)       # not exact in binary
        ix = FileIndex(cpu, clock_at(start_ns))
        loop = clock_at(start_ns)

        def per_page(n):
            for _ in range(n):
                loop.advance(cpu.dram_touch_ns)
            assert (ix._clock.charged_ns, ix._clock.now_ns) \
                == (loop.charged_ns, loop.now_ns)

        ix.install(0x1000, we(0, pages, 100))
        per_page(pages)
        ix.install(0x2000, we(0, pages, 500))   # displaces every page
        per_page(pages)
        assert sorted(ix.mappings()) == [(p, 0x2000, 500 + p)
                                         for p in range(pages)]
        with ix._clock.capture() as cap, loop.capture() as loop_cap:
            kept = pages // 2
            assert ix.truncate_pages(kept).total_pages == pages - kept
            per_page(pages - kept)
            ix.clear()
            per_page(kept)
            ix.clear()                          # nothing mapped: no charge
            per_page(0)
        assert cap.total_ns == loop_cap.total_ns
