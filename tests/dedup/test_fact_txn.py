"""``FactTxn`` on a bare FACT: stage → commit | abort of update counts.

The interleaving tests are the reason ``abort`` drops *its own units*
instead of zeroing the entry's UC the way recovery's ``discard_all_uc``
does: with two transactions on one entry, zero-everything takes the
other side's unit too and its commit then under-counts a live page.
"""

import pytest

from repro.dedup.fact import FactTxn
from repro.pm.device import CrashRequested

from tests.dedup.test_fact import fact, mkfp  # noqa: F401  (fixture)

A, B = 100, 101     # data blocks of the 128-page device


def counts(fact):
    return {idx: (e.refcount, e.update_count)
            for idx, e in fact.live_entries().items()}


def settled(fact, fp, block, rfc):
    """An entry some earlier, finished operation left behind."""
    idx = FactTxn(fact).materialise(fp, block)
    for _ in range(rfc - 1):
        txn = FactTxn(fact)
        txn.share(idx)
        txn.commit()
    return idx


class TestStageCommitAbort:
    def test_commit_settles_every_unit_in_one_store_each(self, fact):
        shared = settled(fact, mkfp(1), A, rfc=1)
        txn = FactTxn(fact)
        claimed = txn.claim(mkfp(2), B)
        txn.share(shared)
        txn.share(claimed)          # a second page with the claimed content
        assert counts(fact) == {shared: (1, 1), claimed: (0, 2)}
        txn.commit()
        assert counts(fact) == {shared: (2, 0), claimed: (2, 0)}
        txn.abort()                 # nothing left to drop
        assert counts(fact) == {shared: (2, 0), claimed: (2, 0)}

    def test_abort_restores_the_table(self, fact):
        shared = settled(fact, mkfp(1), A, rfc=3)
        before = counts(fact)
        free = len(fact._iaa_free)
        txn = FactTxn(fact)
        txn.share(shared)
        claimed = txn.claim(mkfp(1, salt=9), B)     # collides: an IAA slot
        assert claimed >= fact.daa_size
        txn.share(claimed)
        txn.share(shared)
        txn.abort()
        assert counts(fact) == before
        assert fact.lookup(mkfp(1, salt=9)).found is None
        assert fact.entry_for_block(B) is None
        assert len(fact._iaa_free) == free
        fact.check_chains()

    def test_claim_on_a_full_table_stages_nothing(self, fact):
        head = settled(fact, mkfp(4), A, rfc=1)
        fact._iaa_free.clear()
        txn = FactTxn(fact)
        assert txn.claim(mkfp(4, salt=1), B) is None
        txn.abort()
        assert counts(fact) == {head: (1, 0)}

    def test_exception_aborts_but_power_loss_does_not(self, fact):
        idx = settled(fact, mkfp(1), A, rfc=1)
        with pytest.raises(KeyError):
            with FactTxn(fact) as txn:
                txn.share(idx)
                raise KeyError("handled failure")
        assert counts(fact) == {idx: (1, 0)}
        with pytest.raises(CrashRequested):
            with FactTxn(fact) as txn:
                txn.share(idx)
                raise CrashRequested("pre-persist", 1)
        assert counts(fact) == {idx: (1, 1)}    # recovery's to discard
        assert fact.discard_all_uc() == 1

    def test_committed_block_exits_quietly(self, fact):
        with FactTxn(fact) as txn:
            idx = txn.claim(mkfp(1), A)
            txn.commit()
        assert counts(fact) == {idx: (1, 0)}


class _Files:
    """Who maps block ``A`` — the census RFC has to cover."""

    def __init__(self, fact):
        self.fact = fact
        self.fp = mkfp(6)
        self.live = 1               # the claiming file's own page

    def stage(self, own):
        """One page through the daemon's step 3: the owner of ``A``
        claims (or self-hits), anybody else shares."""
        txn = FactTxn(self.fact)
        found = self.fact.lookup(self.fp).found
        if found is None:
            assert own
            txn.claim(self.fp, A)
        elif not own:
            txn.share(found.idx)
        elif found.refcount == 0:
            txn.share(found.idx)
        return txn

    def commit(self, txn, own):
        txn.commit()
        if not own:
            self.live += 1          # the redirect entry now maps A too

    def check_quiescent(self):
        ent = self.fact.entry_for_block(A)
        if ent is not None:         # no entry: an un-deduplicated page
            assert ent.update_count == 0
            assert ent.refcount == self.live
        self.fact.check_chains()


class TestTwoTransactions:
    """T1 claims the entry for its own page, T2 shares it before T1
    settled (parallel dedup workers under different inode locks)."""

    @pytest.fixture
    def files(self, fact):
        return _Files(fact)

    def test_claimer_aborts_sharer_commits_claimer_reruns(self, files):
        t1 = files.stage(own=True)
        t2 = files.stage(own=False)
        t1.abort()      # keeps T1's unit as the reference its page is owed
        files.commit(t2, own=False)
        files.check_quiescent()
        files.commit(files.stage(own=True), own=True)   # self-hit: no-op
        files.check_quiescent()
        assert files.fact.entry_for_block(A).refcount == 2

    def test_sharer_commits_first_then_claimer_aborts(self, files):
        t1 = files.stage(own=True)
        t2 = files.stage(own=False)
        files.commit(t2, own=False)
        t1.abort()
        files.check_quiescent()
        files.commit(files.stage(own=True), own=True)
        files.check_quiescent()

    def test_sharer_aborts_claimer_commits_sharer_reruns(self, files):
        t1 = files.stage(own=True)
        t2 = files.stage(own=False)
        t2.abort()
        files.commit(t1, own=True)
        files.check_quiescent()
        files.commit(files.stage(own=False), own=False)
        files.check_quiescent()
        assert files.fact.entry_for_block(A).refcount == 2

    @pytest.mark.parametrize("claimer_first", [True, False])
    def test_both_abort_both_rerun(self, files, claimer_first):
        t1 = files.stage(own=True)
        t2 = files.stage(own=False)
        for txn in (t1, t2) if claimer_first else (t2, t1):
            txn.abort()
        files.check_quiescent()
        # Claimer last: nobody else counted on the entry, so it is gone.
        assert (files.fact.entry_for_block(A) is None) == (not claimer_first)
        files.commit(files.stage(own=True), own=True)
        files.commit(files.stage(own=False), own=False)
        files.check_quiescent()
        assert files.fact.entry_for_block(A).refcount == 2
