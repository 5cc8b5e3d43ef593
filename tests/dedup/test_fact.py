"""Unit tests for the FACT table: lookup/insert/counts/delete pointers."""

import hashlib

import pytest

from repro.dedup.fact import ENTRY, FACT, FactCorruption, FactFull
from repro.nova.layout import PAGE_SIZE, Geometry, Superblock
from repro.obs import MetricsRegistry
from repro.pm import DRAM, PMDevice, SimClock
from repro.pm.clock import fs_of

N_BITS = 7  # DAA = 128 slots; device has 128 pages


def build_fact(registry=None):
    dev = PMDevice(128 * PAGE_SIZE, model=DRAM, clock=SimClock())
    geo = Geometry.compute(128, max_inodes=16, with_dedup=True,
                           fact_prefix_bits=N_BITS)
    return FACT(Superblock.format(dev, geo), registry=registry)


@pytest.fixture
def fact():
    return build_fact()


def mkfp(prefix: int, salt: int = 0) -> bytes:
    """A 20-byte fingerprint with a chosen N_BITS prefix."""
    body = hashlib.sha1(salt.to_bytes(8, "little")).digest()
    head = int.from_bytes(body[:8], "big")
    head = (head & ((1 << (64 - N_BITS)) - 1)) | (prefix << (64 - N_BITS))
    return head.to_bytes(8, "big") + body[8:]


BLOCK0 = 100  # within the data region of a 128-page device


class TestLookupInsert:
    def test_miss_on_empty_table(self, fact):
        res = fact.lookup(mkfp(3))
        assert res.found is None
        assert res.steps == 1  # one DAA read

    def test_insert_then_lookup_daa_hit(self):
        registry = MetricsRegistry()
        fact = build_fact(registry)
        fp = mkfp(3)
        idx = fact.insert(fp, BLOCK0)
        assert idx == 3  # lands in the DAA slot named by the prefix
        res = fact.lookup(fp)
        assert res.found is not None
        assert res.found.block == BLOCK0
        assert res.found.update_count == 1
        assert res.found.refcount == 0
        assert res.steps == 1
        assert registry.counter("fact.daa_hits_total").value == 1

    def test_collision_goes_to_iaa(self, fact):
        fp1, fp2 = mkfp(5, 1), mkfp(5, 2)
        assert fp1 != fp2
        i1 = fact.insert(fp1, 100)
        i2 = fact.insert(fp2, 101)
        assert i1 == 5
        assert i2 >= fact.daa_size
        r2 = fact.lookup(fp2)
        assert r2.found.idx == i2
        assert r2.steps == 2  # head + one chain hop

    def test_chain_of_four(self, fact):
        fps = [mkfp(9, s) for s in range(4)]
        idxs = [fact.insert(fp, 100 + s) for s, fp in enumerate(fps)]
        for s, fp in enumerate(fps):
            res = fact.lookup(fp)
            assert res.found.idx == idxs[s]
            assert res.steps == s + 1
        fact.check_chains()

    def test_insert_duplicate_fp_rejected(self, fact):
        fp = mkfp(1)
        fact.insert(fp, 100)
        with pytest.raises(ValueError):
            fact.insert(fp, 101)

    def test_insert_block_zero_rejected(self, fact):
        with pytest.raises(ValueError):
            fact.insert(mkfp(0), 0)

    def test_iaa_exhaustion_raises(self, fact):
        # One DAA head + fill the whole IAA with one colliding prefix.
        for s in range(fact.daa_size + 1):
            fact.insert(mkfp(2, s), 1 + s)
        with pytest.raises(FactFull):
            fact.insert(mkfp(2, 999), 999)

    def test_lookup_with_empty_head_but_chain(self, fact):
        """A removed DAA head keeps the chain reachable via its next."""
        fp1, fp2 = mkfp(4, 1), mkfp(4, 2)
        i1 = fact.insert(fp1, 100)
        i2 = fact.insert(fp2, 101)
        fact.inc_uc(i1, fact.read_counts(i1))
        fact.commit_uc(i1, fact.read_counts(i1))
        assert fact.dec_rfc(i1, fact.read_counts(i1)) == 0
        fact.remove(i1)
        res = fact.lookup(fp2)
        assert res.found.idx == i2
        # The empty head is reusable for a fresh insert.
        fp3 = mkfp(4, 3)
        i3 = fact.insert(fp3, 102)
        assert i3 == 4
        assert fact.lookup(fp2).found.idx == i2
        fact.check_chains()


class TestCounts:
    def test_uc_rfc_lifecycle(self, fact):
        idx = fact.insert(mkfp(6), 100)
        assert fact.read_entry(idx).update_count == 1
        fact.inc_uc(idx, fact.read_counts(idx))
        ent = fact.read_entry(idx)
        assert ent.update_count == 2
        assert fact.commit_uc(idx, fact.read_counts(idx))
        assert fact.commit_uc(idx, fact.read_counts(idx))
        ent = fact.read_entry(idx)
        assert ent.update_count == 0
        assert ent.refcount == 2

    def test_commit_uc_idempotent_at_zero(self, fact):
        idx = fact.insert(mkfp(6), 100)
        assert fact.commit_uc(idx, fact.read_counts(idx))
        # UC exhausted -> no-op
        assert not fact.commit_uc(idx, fact.read_counts(idx))
        assert fact.read_entry(idx).refcount == 1

    def test_discard_uc(self, fact):
        idx = fact.insert(mkfp(6), 100)
        fact.inc_uc(idx, fact.read_counts(idx))
        fact.discard_all_uc()
        ent = fact.read_entry(idx)
        assert ent.update_count == 0
        assert ent.refcount == 0

    def test_dec_rfc_underflow_raises(self, fact):
        idx = fact.insert(mkfp(6), 100)
        with pytest.raises(FactCorruption):
            fact.dec_rfc(idx, fact.read_counts(idx))

    def test_counts_share_one_atomic_word(self, fact):
        """UC-1/RFC+1 must be a single 8-byte store (the paper's core
        consistency trick) — verify via the device write counter."""
        idx = fact.insert(mkfp(6), 100)
        before = fact.dev.stats.writes
        fact.commit_uc(idx, fact.read_counts(idx))
        assert fact.dev.stats.writes == before + 1


class TestDeletePointers:
    def test_entry_for_block_two_reads(self, fact):
        idx = fact.insert(mkfp(8), 77)
        before = fact.dev.stats.reads
        ent = fact.entry_for_block(77)
        assert fact.dev.stats.reads == before + 2  # §IV-C: exactly two
        assert ent.idx == idx
        assert ent.block == 77

    def test_entry_for_block_miss(self, fact):
        assert fact.entry_for_block(50) is None

    def test_delete_column_independent_of_slot_entry(self, fact):
        """Slot B's delete pointer survives slot B's own entry churn."""
        # Entry whose block is 10 -> delete pointer lives in slot 10.
        idx_a = fact.insert(mkfp(12), 10)
        # Now occupy slot 10 itself with an entry (prefix 10).
        idx_b = fact.insert(mkfp(10), 90)
        assert idx_b == 10
        assert fact.entry_for_block(10).idx == idx_a  # still resolves
        # Remove the entry living in slot 10; mapping for block 10 stays.
        fact.commit_uc(idx_b, fact.read_counts(idx_b))
        assert fact.dec_rfc(idx_b, fact.read_counts(idx_b)) == 0
        fact.remove(idx_b)
        assert fact.entry_for_block(10).idx == idx_a
        assert fact.entry_for_block(90) is None

    def test_remove_clears_own_block_mapping(self, fact):
        idx = fact.insert(mkfp(3), 55)
        fact.commit_uc(idx, fact.read_counts(idx))
        assert fact.dec_rfc(idx, fact.read_counts(idx)) == 0
        fact.remove(idx)
        assert fact.entry_for_block(55) is None


class TestRemove:
    def _mk_chain(self, fact, prefix, n):
        idxs = []
        for s in range(n):
            idx = fact.insert(mkfp(prefix, s), 60 + s)
            fact.commit_uc(idx, fact.read_counts(idx))
            idxs.append(idx)
        return idxs

    def test_remove_middle_of_chain(self, fact):
        idxs = self._mk_chain(fact, 20, 4)
        assert fact.dec_rfc(idxs[2], fact.read_counts(idxs[2])) == 0
        fact.remove(idxs[2])
        fact.check_chains()
        assert fact.lookup(mkfp(20, 1)).found is not None
        assert fact.lookup(mkfp(20, 3)).found is not None
        assert fact.lookup(mkfp(20, 2)).found is None

    def test_remove_tail_of_chain(self, fact):
        idxs = self._mk_chain(fact, 21, 3)
        assert fact.dec_rfc(idxs[-1], fact.read_counts(idxs[-1])) == 0
        fact.remove(idxs[-1])
        fact.check_chains()
        assert fact.lookup(mkfp(21, 2)).found is None

    def test_removed_iaa_slot_is_reusable(self, fact):
        idxs = self._mk_chain(fact, 22, 2)
        assert fact.dec_rfc(idxs[1], fact.read_counts(idxs[1])) == 0
        fact.remove(idxs[1])
        new_idx = fact.insert(mkfp(23, 0), 95)
        assert new_idx == 23  # DAA
        col = fact.insert(mkfp(23, 1), 96)
        assert col == idxs[1]  # the freed IAA slot comes back
        fact.check_chains()

    def test_remove_invalid_rejected(self, fact):
        with pytest.raises(ValueError):
            fact.remove(40)


class TestOccupancyAndScan:
    def test_occupancy_counts(self, fact):
        fact.insert(mkfp(1, 0), 100)
        fact.insert(mkfp(1, 1), 101)
        fact.insert(mkfp(2, 0), 102)
        occ = fact.occupancy()
        assert occ["daa_used"] == 2
        assert occ["iaa_used"] == 1
        assert occ["entries"] == 3
        assert occ["max_chain"] == 2
        assert occ["bytes"] == fact.total * 64

    def test_live_entries(self, fact):
        i1 = fact.insert(mkfp(1), 100)
        i2 = fact.insert(mkfp(2), 101)
        live = fact.live_entries()
        assert set(live) == {i1, i2}
        assert live[i1].block == 100


    def test_scan_columns_are_snapshots_taken_at_the_charge(self, fact):
        """One bulk read charged per scan; the columns are copies — a
        store after the scan does not show — each its own small array,
        none of them a window on the table or on the device."""
        i1 = fact.insert(mkfp(1, 0), 100)
        i2 = fact.insert(mkfp(1, 1), 101)       # IAA, linked behind i1
        fact.inc_uc(i2, fact.read_counts(i2))
        stats, dev = fact.dev.stats, fact.dev
        reads, bytes_read = stats.reads, stats.bytes_read
        charged = dev.clock.charged_fs
        cols = fact._scan("counts", "block", "prev", "next", "delete")
        assert (stats.reads, stats.bytes_read) \
            == (reads + 1, bytes_read + fact.total * ENTRY)
        assert dev.clock.charged_fs \
            == charged + fs_of(dev.model.read_cost(fact.total * ENTRY))
        assert list(cols) == ["counts", "block", "prev", "next", "delete"]
        assert (cols["block"][i1], cols["block"][i2]) == (100, 101)
        assert (cols["next"][i1], cols["prev"][i2]) == (i2 + 1, i1 + 1)
        assert (cols["counts"][i2] >> 32, cols["delete"][101]) == (2, i2 + 1)
        for col in cols.values():
            assert col.base is None and col.flags.owndata
            assert col.flags.c_contiguous and len(col) == fact.total
            assert col.nbytes == fact.total * 8 < fact.total * ENTRY
        before = {name: col.copy() for name, col in cols.items()}
        fact.commit_uc(i2, fact.read_counts(i2))
        fact.remove(i1)
        fact.insert(mkfp(9), 110)
        for name, col in cols.items():
            assert (col == before[name]).all(), name
        assert fact._scan("block")["block"][i1] == 0    # the next scan sees
        # Nothing of the scan is left holding the device's memory.
        from repro.pm import device as device_module
        device_module._idle.clear()
        dev.close()
        assert len(device_module._idle) == 1
        device_module._idle.clear()
        assert cols["block"][i2] == 101

    def test_scan_of_an_unknown_column_is_refused(self, fact):
        for fields in (("fp",), ("block", "blocks"), ("",)):
            with pytest.raises((ValueError, KeyError)):
                fact._scan(*fields)
        assert fact._scan() == {}

    def test_in_dram_charges_one_read_and_every_writer_stores_to_it(
            self, fact):
        """``in_dram`` is one request per neighbourhood of the DAA's
        marked chunks and ``IAA[:mark]``; inside it the copy tracks
        every device writer — the weak column's too — and scans and
        ``live_entries`` charge nothing more; outside it a scan is a
        charged device read again."""
        i1 = fact.insert(mkfp(1, 0), 100)
        i0 = fact.insert(mkfp(1, 2), 103)               # IAA slot 0
        dev, size = fact.dev, fact.total * ENTRY
        assert fact.iaa_mark == 64
        charged, reads = dev.clock.charged_fs, dev.stats.reads
        with fact.in_dram():
            used = (fact.daa_size + 64) * ENTRY
            # Chunk 0 (slot 1), chunk 6 (the pointers of blocks 100 and
            # 103), IAA[:64]: gaps of 5 KB and 1 KB, past DRAM's reach.
            spans = [(0, 1024), (6144, 7168), (fact.daa_size * ENTRY, used)]
            assert (dev.stats.reads, dev.clock.charged_fs) \
                == (reads + 3, charged + sum(fs_of(dev.model.read_cost(
                    hi - lo)) for lo, hi in spans))
            assert not any(fact._dram[used:])
            i2 = fact.insert(mkfp(1, 1), 101)           # fields + u64s
            fact.commit_uc(i2, fact.read_counts(i2))
            fact.set_block_weak(101, 0xBEEF)
            fact.retarget_block(i1, 102)
            fact.remove(i1)
            assert bytes(fact._dram) == dev.read_silent(fact.base, size)
            reads, at = dev.stats.reads, dev.clock.charged_fs
            assert fact._scan("block")["block"][i2] == 101
            assert set(fact.live_entries()) == {i0, i2}
            assert (dev.stats.reads, dev.clock.charged_fs) == (reads, at)
        assert fact._dram is None
        fact._scan("block")
        assert dev.stats.reads == reads + 1


class TestCheckChains:
    def test_detects_bad_prev(self, fact):
        fact.insert(mkfp(30, 0), 100)
        i2 = fact.insert(mkfp(30, 1), 101)
        fact._write_u64(i2, 16, 99)  # corrupt prev
        with pytest.raises(FactCorruption):
            fact.check_chains()

    def test_detects_unreachable_iaa_entry(self, fact):
        fact.insert(mkfp(30, 0), 100)
        i2 = fact.insert(mkfp(30, 1), 101)
        # Sever the link.
        fact._write_u64(30, 24, 0)
        with pytest.raises(FactCorruption):
            fact.check_chains()

    def test_detects_cycle(self, fact):
        fact.insert(mkfp(30, 0), 100)
        i2 = fact.insert(mkfp(30, 1), 101)
        fact._write_u64(i2, 24, i2 + 1)  # next -> itself
        with pytest.raises(FactCorruption):
            fact.check_chains()

    def test_detects_dangling_delete_pointer(self, fact):
        idx = fact.insert(mkfp(3), 70)
        fact.clear_delete(70)
        with pytest.raises(FactCorruption):
            fact.check_chains()


class TestWholeTablePassesSkipOnlyEmptyHeads:
    """The passes walk the heads with a non-zero block, next or prev; a
    head is skipped only when all three are zero."""

    def test_commit_flag_on_an_otherwise_empty_head(self, fact):
        fact.insert(mkfp(30, 0), 100)
        fact._write_u64(77, 16, 5)          # prev of empty head 77
        with pytest.raises(FactCorruption, match="head 77: reorder commit"):
            fact.check_chains()

    def test_invalid_head_with_a_chain_behind_it(self, fact):
        head = fact.insert(mkfp(30, 0), 100)
        i2 = fact.insert(mkfp(30, 1), 101)
        i3 = fact.insert(mkfp(30, 2), 102)
        for idx in (head, i2, i3):
            fact.commit_uc(idx, fact.read_counts(idx))
        fact.dec_rfc(head, fact.read_counts(head))
        fact.remove(head)                   # block 0, next still set
        fact.check_chains()
        assert fact.occupancy()["max_chain"] == 2
        fact._write_u64(i3, 16, 99)         # corrupt prev two hops in
        with pytest.raises(FactCorruption, match=f"slot {i3}: prev=98"):
            fact.check_chains()
        assert fact.structural_recover()["prevs_fixed"] == 1
        fact.check_chains()

    def test_repairs_are_written_in_ascending_head_order(self, fact):
        second = {}
        for i, prefix in enumerate((90, 20, 55)):
            fact.insert(mkfp(prefix, 0), 60 + i)
            second[prefix] = fact.insert(mkfp(prefix, 1), 70 + i)
        for idx in second.values():
            fact._write_u64(idx, 16, 99)    # stale prev in three chains
        repairs = []
        write_u64 = fact._write_u64
        fact._write_u64 = lambda idx, off, val: (
            repairs.append((idx, off, val)), write_u64(idx, off, val))[1]
        assert fact.structural_recover()["prevs_fixed"] == 3
        assert repairs == [(second[p], 16, p + 1) for p in (20, 55, 90)]
        assert fact._iaa_free == [
            idx for idx in range(fact.total - 1, fact.daa_size - 1, -1)
            if fact.read_entry(idx).block == 0]
        fact.check_chains()


class TestFreshFreeList:
    """A fresh table builds its all-free IAA list on first use; what it
    hands out is what the list built eagerly in ``__init__`` did."""

    @staticmethod
    def eager(fact):
        return list(range(fact.total - 1, fact.daa_size - 1, -1))

    def test_pops_the_eager_sequence(self, fact):
        eager = self.eager(fact)
        got = [fact.insert(mkfp(17, s), 60 + s) for s in range(6)]
        assert got[0] == 17                  # the DAA head
        assert got[1:] == [eager.pop() for _ in range(5)]

    def test_a_freed_slot_is_reused_first(self, fact):
        idxs = [fact.insert(mkfp(17, s), 60 + s) for s in range(4)]
        fact.remove(idxs[2])
        assert fact.insert(mkfp(23, 0), 70) == 23
        assert fact.insert(mkfp(23, 1), 71) == idxs[2]
        assert fact.insert(mkfp(23, 2), 72) == idxs[3] + 1

    def test_occupancy_reads_the_eager_values(self, fact):
        assert fact.occupancy()["iaa_free"] == len(self.eager(fact))
        assert fact.iaa_occupied() == []
        assert fact._iaa_free == self.eager(fact)


class TestCrashSafety:
    def test_insert_is_published_by_link(self, fact):
        """Crash between slot write and chain link leaves an orphan the
        structural recovery zeroes."""
        fact.insert(mkfp(40, 0), 100)
        dev = fact.dev
        # Manually stage a half-insert: entry + delete ptr, no link.
        new_idx = fact._iaa_free.pop()
        fact._write_fields(new_idx, 1 << 32, 101, 40, -1, mkfp(40, 1))
        fact.set_delete(101, new_idx)
        dev.crash()
        dev.recover_view()
        rep = fact.structural_recover()
        assert rep["orphans_zeroed"] == 1
        assert fact.entry_for_block(101) is None
        fact.check_chains()

    def test_structural_recover_rebuilds_freelist(self, fact):
        i1 = fact.insert(mkfp(40, 0), 100)
        i2 = fact.insert(mkfp(40, 1), 101)
        free_before = len(fact._iaa_free)
        fact._iaa_free = []  # simulate lost DRAM state
        fact.structural_recover()
        assert len(fact._iaa_free) == free_before

    def test_counts_survive_crash_after_persist(self, fact):
        idx = fact.insert(mkfp(7), 100)
        fact.commit_uc(idx, fact.read_counts(idx))
        fact.dev.crash()
        fact.dev.recover_view()
        ent = fact.read_entry(idx)
        assert ent.refcount == 1
        assert ent.update_count == 0
