"""Budgeted FACT maintenance and recovery-path regressions:

* scrub returns reclaimed pages to their *home* CPU's free list (the
  static-partition owner), not CPU 0;
* budgeted scrub / deep_verify sweeps resume from a cursor and cover
  the whole table across calls;
* a clean remount rebuilds (or checkpoint-restores) the volatile IAA
  free list, so post-remount dedup cannot hand out occupied slots.
"""

import math
from functools import partial

import pytest

from repro.dedup import DeNovaFS
from repro.dedup.fact import FACT
from repro.failure import check_fs_invariants
from repro.nova import PAGE_SIZE
from repro.pm import DRAM, PMDevice, SimClock
from repro.repl import relocate_latest

pytestmark = pytest.mark.recovery


def page_of(i: int) -> bytes:
    return bytes([i % 256]) * PAGE_SIZE


def make_fs(pages=2048, inodes=64, cpus=1, **kw):
    dev = PMDevice(pages * PAGE_SIZE, model=DRAM, clock=SimClock())
    return DeNovaFS.mkfs(dev, max_inodes=inodes, cpus=cpus, **kw)


def cpu_holding(alloc, page):
    for cpu, lst in enumerate(alloc.free_extents()):
        for ext in lst:
            if ext.start <= page < ext.start + ext.count:
                return cpu
    return None


def leak_pages(fs, nfiles: int) -> dict[int, int]:
    """Forge the §V-C2 over-increment leak on every entry: returns
    {fact idx: leaked block}."""
    for i in range(nfiles):
        ino = fs.create(f"/leak{i}")
        fs.write(ino, 0, page_of(i + 1), cpu=i % fs.cpus)
    fs.daemon.drain()
    for idx in list(fs.fact.live_entries()):
        fs.fact.inc_uc(idx, fs.fact.read_counts(idx))
        # RFC = 2 with one real reference
        fs.fact.commit_uc(idx, fs.fact.read_counts(idx))
    for i in range(nfiles):
        fs.unlink(f"/leak{i}")  # dec to 1 -> page leaked, entry alive
    return {idx: ent.block
            for idx, ent in fs.fact.live_entries().items()}


class TestScrubHomeCpu:
    def test_scrub_frees_pages_to_home_cpu(self):
        fs = make_fs(cpus=4)
        leaked = leak_pages(fs, 8)
        assert leaked
        homes = {b: fs.allocator.home_cpu(b) for b in leaked.values()}
        # The leak spans partitions, so a free-everything-to-CPU-0 bug
        # is observable.
        assert len(set(homes.values())) > 1
        rep = fs.scrub()
        assert rep["pages_freed"] == len(leaked)
        for block, home in homes.items():
            assert cpu_holding(fs.allocator, block) == home, \
                f"page {block} freed to the wrong CPU list"
        check_fs_invariants(fs)

    def test_free_lists_stay_balanced_after_scrub(self):
        fs = make_fs(cpus=4)
        before = [sum(e.count for e in lst)
                  for lst in fs.allocator.free_extents()]
        leaked = leak_pages(fs, 8)
        fs.scrub()
        after = [sum(e.count for e in lst)
                 for lst in fs.allocator.free_extents()]
        # Everything allocated was freed back (minus a couple of pages
        # of directory-log growth); no single CPU's list may have
        # absorbed the whole reclaim, as the free-to-CPU-0 bug did.
        assert sum(before) - sum(after) <= 4
        assert max(abs(a - b) for a, b in zip(after, before)) <= 3, \
            f"per-CPU free lists skewed: {before} -> {after}"
        assert len(leaked) == 8


class TestBudgetedMaintenance:
    def _populated(self, n=6):
        fs = make_fs()
        for i in range(n):
            ino = fs.create(f"/f{i}")
            fs.write(ino, 0, page_of(i + 1))
        fs.daemon.drain()
        return fs

    def test_budgeted_scrub_sweeps_incrementally(self):
        fs = self._populated()
        total = len(fs.fact.live_entries())
        examined = rounds = 0
        while True:
            rep = fs.scrub(budget=2)
            examined += rep["examined"]
            rounds += 1
            if rep["done"]:
                break
        assert examined == total
        assert rounds == math.ceil(total / 2)
        assert fs.cursors.get("scrub") == 0  # sweep completed -> cursor reset

    def test_budgeted_deep_verify_resumes(self):
        fs = self._populated()
        total = len(fs.fact.live_entries())
        rep1 = fs.deep_verify(budget=total - 1)
        assert not rep1["done"]
        assert fs.cursors.get("deep_verify") == rep1["next_cursor"] > 0
        rep2 = fs.deep_verify(budget=total)
        assert rep2["done"] and rep2["clean"]
        assert rep1["checked"] + rep2["checked"] == total
        assert fs.cursors.get("deep_verify") == 0

    @pytest.mark.parametrize("budget", (0, -1))
    def test_budget_below_one_is_rejected(self, budget):
        """``examined >= budget`` held before the first entry, so such a
        call examined nothing and reported done=False — forever."""
        fs = self._populated()
        fs.snapshot("s1")
        relocate = partial(relocate_latest, fs)
        for sweep in (fs.scrub, fs.deep_verify, relocate):
            with pytest.raises(ValueError, match="budget must be >= 1"):
                sweep(budget=budget)
        assert fs.scrub(budget=1)["examined"] == 1

    def test_unbudgeted_call_sweeps_everything(self):
        fs = self._populated()
        rep = fs.scrub()
        assert rep["done"]
        assert rep["examined"] == len(fs.fact.live_entries())


class TestIaaFreeListRemount:
    def _distinct_fs(self):
        # A 64-page device gets 6 prefix bits -> 64 DAA buckets; 14
        # distinct pages deterministically collide into the IAA.
        fs = make_fs(pages=64, inodes=32)
        for i in range(14):
            ino = fs.create(f"/f{i}")
            fs.write(ino, 0, page_of(i + 1))
        fs.daemon.drain()
        return fs

    @pytest.mark.parametrize("use_checkpoint", [True, False])
    def test_clean_remount_restores_iaa_free_list(self, tmp_path,
                                                  use_checkpoint):
        fs = self._distinct_fs()
        assert fs.fact.occupancy()["iaa_used"] > 0
        occupied = {idx for idx in fs.fact.live_entries()
                    if idx >= fs.fact.daa_size}
        fs.unmount()
        path = tmp_path / "iaa.img"
        fs.dev.save_image(path)
        dev = PMDevice.load_image(path, clock=SimClock())
        fs2 = DeNovaFS.mount(dev, use_checkpoint=use_checkpoint)
        # The pre-fix free list optimistically contained *every* IAA
        # slot; handing out an occupied one corrupts the table.
        assert set(fs2.fact._iaa_free).isdisjoint(occupied)
        for j in range(3):
            ino = fs2.create(f"/g{j}")
            fs2.write(ino, 0, page_of(100 + j))
        fs2.daemon.drain()
        fs2.fact.check_chains()
        check_fs_invariants(fs2)
        # All pre-remount entries survived the new inserts.
        assert occupied <= set(fs2.fact.live_entries())

    @pytest.mark.parametrize("clean", [True, False])
    def test_mount_never_builds_the_fresh_list(self, monkeypatch, clean):
        """Every mount replaces the all-free list a fresh table starts
        with before anything reads it, so none is built."""
        fs = self._distinct_fs()
        if clean:
            fs.unmount()
        else:
            fs.dev.crash()
            fs.dev.recover_view()
        built = []
        lazy = FACT._iaa_free

        def spy(fact):
            if fact._free is None:
                built.append(fact)
            return lazy.fget(fact)

        monkeypatch.setattr(FACT, "_iaa_free", property(spy, lazy.fset))
        fs2 = DeNovaFS.mount(fs.dev)
        assert fs2.last_recovery.clean is clean
        assert built == []
        assert set(fs2.fact._iaa_free).isdisjoint(fs2.fact.live_entries())
