"""FACT bucket-locking property test.

P parallel dedup workers pounding a duplicate-heavy block set must never
double-claim a FACT entry: reference counts end exactly equal to the
live file references (no double-increment), chains stay well-linked (no
orphaned prev/next), and no two live entries claim one block — including
when power fails at every persist event of the concurrent run.
"""

from collections import Counter

import pytest

from repro.core import Config, Variant, make_fs
from repro.dedup.denova import DeNovaFS
from repro.failure import check_fs_invariants, sweep_crash_points
from repro.nova import PAGE_SIZE
from repro.workloads import small_file_job
from tests.conc.permutations import jittered, run_workload

pytestmark = pytest.mark.conc


def live_block_refs(fs) -> Counter:
    """How many live file pages reference each physical block."""
    refs: Counter = Counter()
    for cache in fs.caches.values():
        if cache.inode.itype != 1:
            continue
        for pgoff, (_a, entry) in cache.index._slots.items():
            refs[entry.block_for(pgoff)] += 1
    return refs


def run_parallel(workers, shards, nfiles=36, threads=3, seed=5):
    fs, dd = make_fs(Variant.IMMEDIATE,
                     Config(device_pages=4096, max_inodes=512, cpus=4))
    res = run_workload(fs, small_file_job(nfiles=nfiles, dup_ratio=0.9,
                                          threads=threads, seed=seed),
                       dd=dd, workers=workers, shards=shards)
    assert res.dd_nodes == nfiles and len(fs.dwq) == 0
    return fs


class TestNoDoubleClaim:
    @pytest.mark.parametrize("workers,shards", [(1, 1), (2, 4), (4, 8)])
    def test_rfc_exactly_matches_references(self, workers, shards):
        """After a drained duplicate-heavy run, every tracked block's RFC
        equals its live reference count — an over-count would prove two
        workers both claimed the same FACT entry for a page."""
        fs = run_parallel(workers, shards)
        refs = live_block_refs(fs)
        entries = fs.fact.live_entries()
        by_block = {}
        for idx, ent in entries.items():
            assert ent.block not in by_block, \
                f"FACT[{by_block[ent.block]}] and FACT[{idx}] both claim " \
                f"block {ent.block}"
            by_block[ent.block] = idx
            assert ent.update_count == 0, \
                f"FACT[{idx}]: staged UC {ent.update_count} leaked"
            assert ent.refcount == refs[ent.block], \
                f"FACT[{idx}] block {ent.block}: RFC={ent.refcount} " \
                f"!= {refs[ent.block]} live references"
        fs.fact.check_chains()  # no orphaned prev/next links

    def test_worker_counts_are_pool_invariant(self):
        """Space savings must not depend on how many workers split the
        queue — a lost or doubled UC would move physical_pages."""
        phys = set()
        for workers, shards in ((1, 1), (2, 4), (3, 8)):
            fs = run_parallel(workers, shards)
            phys.add(fs.space_stats()["physical_pages"])
        assert len(phys) == 1


class TestCrashDuringParallelDedup:
    def test_invariants_hold_at_every_persist_event(self):
        """Crash the concurrent run at persist events (subsampled pre and
        post) and re-mount: recovery must leave RFCs that never
        undercount live references and structurally sound chains."""
        def build():
            fs, dd = make_fs(Variant.IMMEDIATE,
                             Config(device_pages=2048, max_inodes=256,
                                    cpus=2))

            def scenario():
                run_workload(fs, small_file_job(nfiles=10, dup_ratio=0.9,
                                                threads=2, seed=3),
                             dd=dd, workers=2, shards=4)

            return fs.dev, scenario

        def check(dev, point, phase):
            fs2 = DeNovaFS.mount(dev)
            check_fs_invariants(fs2)

        assert sweep_crash_points(build, check, stride=23) > 10

    def test_no_redirect_lands_on_an_uncounted_claim(self):
        """Four clients write the same four pages; the jittered schedule
        lets a worker stage a share of another worker's fresh claim and
        publish its redirect before the claimer's node commits.  A claim
        settles inside the ``fact`` critical section that created it, so
        a crash at any event leaves no canonical whose own reference is
        uncounted.  (Settled at the start of the claimer's
        ``commit_node`` instead, 8 points of this sweep recover to
        ``RFC=1`` for 2 live references.)"""
        def check(dev, point, phase):
            check_fs_invariants(DeNovaFS.mount(dev))

        assert sweep_crash_points(four_clients_share_claims, check) > 400


def four_clients_share_claims():
    """``(dev, scenario)``: four clients each write the same four pages
    to files of their own, drained by four jittered workers — a worker
    shares another's fresh claim before that node commits."""
    def client(vfs, tid):
        fs, holder = vfs.fs, f"client-{tid}"
        yield from vfs.op(lambda: fs.mkdir(f"/p{tid}"), holder, ns_mode="w")
        for i in range(4):
            ino, _ = yield from vfs.op(
                lambda p=f"/p{tid}/f{i}": fs.create(p), holder, ns_mode="w")
            data = bytes([i + 1]) * PAGE_SIZE
            yield from vfs.write(
                lambda ino=ino, d=data: fs.write(ino, 0, d, cpu=tid),
                holder, ino)

    fs, dd = make_fs(Variant.IMMEDIATE,
                     Config(device_pages=2048, max_inodes=256, cpus=4))

    def scenario():
        vfs = jittered(2, 4000.0)(fs, workers=4)
        vfs.run([vfs.client(client(vfs, t), name=f"client-{t}")
                 for t in range(4)], dd)

    return fs.dev, scenario
