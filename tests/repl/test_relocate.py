"""Reverse-dedup relocation: sequential layout, budget/cursor resume,
FACT integrity, one publish per referencing inode, and the crash-replay
of the intent journal."""

import random
from collections import Counter

import pytest

from repro.dedup import DeNovaFS
from repro.dedup.reflink import SNAPSHOT_DIR
from repro.failure import check_fs_invariants
from repro.failure.injector import sweep_crash_points
from repro.nova import PAGE_SIZE
from repro.nova.fs import NovaFS
from repro.nova.inode import ITYPE_FILE
from repro.nova.log import LogManager
from repro.pm import OPTANE_DCPM, PMDevice, SimClock
from repro.repl import relocate_latest
from repro.repl import REPL_DIR
from repro.repl.relocate import INTENT_PATH, _relocate_file

from tests._ledger import Ledger
from tests.nova import test_read_runs
from tests.repl.util import build_chain_pair, make_fs, page_of

pytestmark = pytest.mark.repl


def requests_of(fs, path):
    """Device requests a whole read of ``path`` makes."""
    cache = fs.caches[fs.lookup(path, follow=False)]
    with Ledger(fs.dev) as led:
        fs.read_runs(cache, 0, cache.inode.size)
    return len(led.select("read"))


class TestRelocate:
    def test_latest_becomes_sequential(self):
        _src, dst, _b, _names = build_chain_pair(4)
        path = f"{SNAPSHOT_DIR}/s4/data"
        before = requests_of(dst, path)
        assert before > 1  # forward chain fragmented
        out = relocate_latest(dst)
        assert out["done"] and out["snapshot"] == "s4"
        assert out["pages_moved"] > 0
        assert requests_of(dst, path) == 1
        assert (out["requests_before"], out["requests_after"]) == (before, 1)
        check_fs_invariants(dst)

    def test_relocation_is_idempotent(self):
        _src, dst, _b, _names = build_chain_pair(3)
        relocate_latest(dst)
        again = relocate_latest(dst)
        assert again["done"] and again["pages_moved"] == 0
        assert again["requests_before"] == again["requests_after"] == 0
        check_fs_invariants(dst)

    def test_runs_out_of_file_order_in_one_neighbourhood_stay(self):
        """``/data``'s pages duplicate ``/src``'s in another order: four
        runs, all inside ``/src``'s extent, so one request reads the file
        and relocation leaves it where it is."""
        fs = make_fs(pages=1024, max_inodes=64)
        pages = [page_of(i) for i in range(1, 5)]
        fs.write(fs.create("/src"), 0, b"".join(pages))
        fs.write(fs.create("/data"), 0, b"".join(pages[::-1]))
        fs.daemon.drain()
        fs.snapshot("s1")
        path = f"{SNAPSHOT_DIR}/s1/data"
        index = fs.caches[fs.lookup(path)].index
        b = fs.caches[fs.lookup("/src")].index.block_of(0)
        assert [index.block_of(p) for p in range(4)] == [b + 3, b + 2,
                                                         b + 1, b]
        assert requests_of(fs, path) == 1
        persists = []
        fs.dev.hooks.on_persist = lambda n, _dev: persists.append(n)
        assert _relocate_file(fs, path, set(), Counter()) == 0
        fs.dev.hooks.on_persist = None
        assert persists == []
        assert not fs.exists(INTENT_PATH)

    def test_older_snapshots_keep_content(self):
        """The indirection moves to the old snapshots; their bytes don't."""
        src, dst, _b, names = build_chain_pair(4)
        want = {}
        for name in names:
            ino = dst.lookup(f"{SNAPSHOT_DIR}/{name}/data", follow=False)
            want[name] = dst.read(ino, 0, dst.stat(ino).size)
        relocate_latest(dst)
        for name in names:
            ino = dst.lookup(f"{SNAPSHOT_DIR}/{name}/data", follow=False)
            assert dst.read(ino, 0, dst.stat(ino).size) == want[name], name
        check_fs_invariants(dst)

    def test_budget_and_cursor_resume(self):
        _src, dst, _b, _names = build_chain_pair(4)
        # Split the latest snapshot into several files so the pass has
        # more than one batch to resume across.
        moved = 0
        rounds = 0
        while True:
            out = relocate_latest(dst, budget=1)
            moved += out["pages_moved"]
            rounds += 1
            if out["done"]:
                break
            assert out["next_cursor"] > 0
            assert rounds < 100
        assert moved > 0
        check_fs_invariants(dst)
        # The counter saw every move.
        relocated = dst.obs.registry.counter("repl.pages_relocated_total")
        assert relocated.value == moved

    def test_no_intent_residue_after_clean_pass(self):
        _src, dst, _b, _names = build_chain_pair(3)
        relocate_latest(dst)
        assert not dst.exists(f"{REPL_DIR}/relocate.intent")

    def test_space_neutral(self):
        """Relocation changes placement, not occupancy: every old page
        freed, every unused slot of the fresh extents returned."""
        _src, dst, _b, _names = build_chain_pair(4)
        before = dst.statfs()["used_pages"]
        relocate_latest(dst)
        assert dst.statfs()["used_pages"] == before
        check_fs_invariants(dst)


def contents(fs):
    """Path -> bytes of every regular file, snapshots included."""
    return {path: fs.read(ino, 0, cache.inode.size)
            for path, ino, cache in fs.walk("/")
            if cache.inode.itype == ITYPE_FILE
            and not path.startswith(REPL_DIR)}


class TestOnePublishPerReferencingInode:
    def test_one_walk_and_one_tail_update_per_inode(self, monkeypatch):
        """256-page ``/b``, half of whose pages (at shuffled offsets)
        duplicate shuffled pages of ``/a``, on Optane: relocating ``/b``
        moves 256 pages referenced by two inodes.  Each referencing inode gets one
        redirect commit and one fast-GC walk, not one per page."""
        rng = random.Random(5)
        dev = PMDevice(4096 * PAGE_SIZE, model=OPTANE_DCPM, clock=SimClock())
        fs = DeNovaFS.mkfs(dev, max_inodes=64)
        a = [rng.randbytes(PAGE_SIZE) for _ in range(256)]
        b = [rng.randbytes(PAGE_SIZE) for _ in range(256)]
        for pos, src in zip(rng.sample(range(256), 128),
                            rng.sample(range(256), 128)):
            b[pos] = a[src]
        fs.write(fs.create("/a"), 0, b"".join(a))
        fs.write(fs.create("/b"), 0, b"".join(b))
        fs.daemon.drain()
        refs = {fs.lookup("/a"), fs.lookup("/b")}
        walks, commits = Counter(), Counter()
        walk, commit = NovaFS._maybe_gc_log, LogManager.commit

        def counted_walk(self, cache):
            walks[cache.inode.ino] += 1
            return walk(self, cache)

        def counted_commit(self, ino, tail):
            commits[ino] += 1
            return commit(self, ino, tail)

        monkeypatch.setattr(NovaFS, "_maybe_gc_log", counted_walk)
        monkeypatch.setattr(LogManager, "commit", counted_commit)
        assert _relocate_file(fs, "/b", set(), Counter()) == 256
        monkeypatch.undo()
        assert {ino: walks[ino] for ino in refs} == dict.fromkeys(refs, 1)
        assert {ino: commits[ino] for ino in refs} == dict.fromkeys(refs, 1)
        # The rest is the intent file's own write.
        assert sum(walks.values()) == 3
        assert fs.read(fs.lookup("/a"), 0, 256 * PAGE_SIZE) == b"".join(a)
        assert fs.read(fs.lookup("/b"), 0, 256 * PAGE_SIZE) == b"".join(b)
        assert requests_of(fs, "/b") == 1
        check_fs_invariants(fs)


class TestShuffledDuplicatesRelocated:
    """ROADMAP finding 5's live files: ``/b`` shares a fraction α of its
    pages with ``/a`` at shuffled offsets.  Relocating ``/b`` makes it one
    request and moves the shared blocks out of ``/a``'s extent: ``/a``
    takes on about the requests ``/b`` gave up."""

    @pytest.mark.parametrize("alpha, b_before, a_after", [
        (0.9, 47, 46),
        (0.5, 129, 130),
        (0.25, 95, 96),
    ])
    def test_b_becomes_one_request_and_a_takes_the_scatter(
            self, alpha, b_before, a_after):
        fs, _ino, want = test_read_runs.TestShuffledDuplicates.build(
            DeNovaFS, alpha)
        assert (requests_of(fs, "/a"), requests_of(fs, "/b")) \
            == (1, b_before)
        tally = Counter()
        assert _relocate_file(fs, "/b", set(), tally) == 256
        assert (tally["requests_before"], tally["requests_after"]) \
            == (b_before, 1)
        assert (requests_of(fs, "/a"), requests_of(fs, "/b")) \
            == (a_after, 1)
        assert fs.read(fs.lookup("/b"), 0, len(want)) == want
        check_fs_invariants(fs)


def shared_relocation():
    """``/b`` shares four of ``/a``'s pages (shuffled) plus four of its
    own; ``s1`` is the older snapshot and ``s2``, the one relocated,
    the newest: ``s2/b``'s moved blocks are shared by both live files,
    by ``s1`` and by ``s2/a``."""
    fs = make_fs(pages=1024, max_inodes=64)
    a = [page_of(i) for i in range(1, 9)]
    b = [a[3], page_of(20), a[0], page_of(21), a[6], a[1], page_of(22),
         page_of(23)]
    fs.write(fs.create("/a"), 0, b"".join(a))
    fs.write(fs.create("/b"), 0, b"".join(b))
    fs.daemon.drain()
    fs.snapshot("s1")
    fs.snapshot("s2")
    return fs


class TestSharedRelocationCrash:
    def test_every_persist_event_recovers_clean(self):
        """Crash a ``relocate_latest`` at every persist event, both
        phases, both modes: each recovery (which replays the intent
        journal forward or discards it) is invariant-clean with every
        file's bytes unchanged, and the pass then completes."""
        want = contents(shared_relocation())
        assert len(want) == 6

        def build():
            fs = shared_relocation()

            def scenario():
                assert relocate_latest(fs)["pages_moved"] == 8

            return fs.dev, scenario

        def check(dev, point, phase):
            rec = DeNovaFS.mount(dev)
            check_fs_invariants(rec)
            assert contents(rec) == want, (point, phase)
            assert relocate_latest(rec)["done"]
            assert contents(rec) == want, (point, phase)
            check_fs_invariants(rec)

        assert sweep_crash_points(build, check,
                                  mode=("discard", "torn")) > 100
