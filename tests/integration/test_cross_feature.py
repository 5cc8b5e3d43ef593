"""Cross-feature interaction tests: the places bugs hide.

Each test combines at least two of {dedup daemon, reflink/snapshots,
thorough GC, rename journal, hard links, crash injection} and checks the
full invariant set.
"""

import pytest

from repro.dedup import DeNovaFS
from repro.failure import check_fs_invariants, sweep_crash_points
from repro.nova import PAGE_SIZE
from repro.nova.gc import thorough_gc
from repro.pm import DRAM, PMDevice, SimClock
from repro.workloads import DataGenerator


def make_fs(pages=4096):
    dev = PMDevice(pages * PAGE_SIZE, model=DRAM, clock=SimClock())
    return DeNovaFS.mkfs(dev, max_inodes=256)


def page_of(tag):
    return bytes([tag & 0xFF]) * PAGE_SIZE


class TestSnapshotCrashes:
    def test_crash_sweep_during_snapshot(self):
        """Crash at every persistence event of a snapshot: live data is
        never harmed, partial snapshots are consistent and deletable."""
        def build():
            fs = make_fs(pages=2048)
            fs.mkdir("/work")
            for i in range(3):
                ino = fs.create(f"/work/f{i}")
                fs.write(ino, 0, page_of(i) * 2)
            fs.daemon.drain()

            def scenario():
                fs.snapshot("snap")

            return fs.dev, scenario

        def check(dev, point, phase):
            fs2 = DeNovaFS.mount(dev)
            for i in range(3):
                ino = fs2.lookup(f"/work/f{i}")
                assert fs2.read(ino, 0, 2 * PAGE_SIZE) == page_of(i) * 2
            check_fs_invariants(fs2)
            # A partial snapshot (if any) can be torn down cleanly.
            if "snap" in fs2.list_snapshots():
                fs2.delete_snapshot("snap")
                check_fs_invariants(fs2)
            # And a fresh snapshot completes afterwards.
            rep = fs2.snapshot("retry")
            assert rep["files"] == 3
            check_fs_invariants(fs2)

        assert sweep_crash_points(build, check, stride=3) > 5

    def test_crash_sweep_during_snapshot_delete(self):
        def build():
            fs = make_fs(pages=2048)
            fs.mkdir("/work")
            for i in range(2):
                ino = fs.create(f"/work/f{i}")
                fs.write(ino, 0, page_of(i))
            fs.daemon.drain()
            fs.snapshot("doomed")

            def scenario():
                fs.delete_snapshot("doomed")

            return fs.dev, scenario

        def check(dev, point, phase):
            fs2 = DeNovaFS.mount(dev)
            for i in range(2):
                assert fs2.read(fs2.lookup(f"/work/f{i}"), 0,
                                PAGE_SIZE) == page_of(i)
            check_fs_invariants(fs2)
            fs2.scrub()
            check_fs_invariants(fs2)

        assert sweep_crash_points(build, check, stride=2) > 3


class TestGCInteractions:
    def test_gc_after_snapshot_churn(self):
        fs = make_fs()
        ino = fs.create("/hot")
        for i in range(150):
            fs.write(ino, 0, page_of(i))
            if i % 50 == 25:
                fs.daemon.drain()
                fs.snapshot(f"s{i}")
        fs.daemon.drain()
        rep = thorough_gc(fs, ino)
        assert "pages_reclaimed" in rep or "skipped" in rep
        # Snapshot contents unaffected by compacting the live file's log.
        for i in (25, 75, 125):
            snap = fs.read(fs.lookup(f"/.snapshots/s{i}/hot"), 0, PAGE_SIZE)
            assert snap == page_of(i)
        check_fs_invariants(fs)

    def test_gc_of_reflinked_files(self):
        fs = make_fs()
        src = fs.create("/src")
        for i in range(120):
            fs.write(src, 0, page_of(i % 7) * 2)
        fs.daemon.drain()
        fs.reflink("/src", "/twin")
        thorough_gc(fs, src)
        assert fs.read(fs.lookup("/twin"), 0, 2 * PAGE_SIZE) == \
            fs.read(src, 0, 2 * PAGE_SIZE)
        check_fs_invariants(fs)


class TestRenameDedupInterplay:
    def test_rename_while_dedup_pending(self):
        fs = make_fs()
        fs.mkdir("/a")
        fs.mkdir("/b")
        ino = fs.create("/a/f")
        fs.write(ino, 0, page_of(3) * 2)
        assert len(fs.dwq) == 1
        fs.rename("/a/f", "/b/g")   # node's ino is unchanged
        fs.daemon.drain()
        nodes = fs.obs.registry.counter("daemon.nodes_processed_total")
        assert nodes.value == 1
        assert fs.read(fs.lookup("/b/g"), 0, 2 * PAGE_SIZE) == page_of(3) * 2
        check_fs_invariants(fs)

    def test_hardlink_then_dedup_then_unlink_chain(self):
        fs = make_fs()
        a = fs.create("/a")
        fs.write(a, 0, page_of(8))
        fs.link("/a", "/b")
        fs.link("/a", "/c")
        other = fs.create("/other")
        fs.write(other, 0, page_of(8))
        fs.daemon.drain()
        assert fs.space_stats()["physical_pages"] == 1
        fs.unlink("/a")
        fs.unlink("/b")
        fs.unlink("/other")
        assert fs.read(fs.lookup("/c"), 0, PAGE_SIZE) == page_of(8)
        check_fs_invariants(fs)


class TestSoak:
    def test_deterministic_soak(self):
        """A few thousand mixed operations with periodic crashes,
        remounts, GC, scrub and snapshots — the long-haul invariant run."""
        import random

        rng = random.Random(1234)
        dev = PMDevice(8192 * PAGE_SIZE, model=DRAM, clock=SimClock())
        fs = DeNovaFS.mkfs(dev, max_inodes=1024)
        gen = DataGenerator(alpha=0.5, seed=99, dup_pool_size=8)
        oracle: dict[str, bytes] = {}
        counter = [0]

        def new_path():
            counter[0] += 1
            return f"/s{counter[0]}"

        for step in range(900):
            roll = rng.random()
            live = sorted(oracle)
            if roll < 0.35 or not live:
                path = new_path()
                data = gen.file_data(rng.randrange(1, 3 * PAGE_SIZE))
                fs.write(fs.create(path), 0, data)
                oracle[path] = data
            elif roll < 0.55:
                path = rng.choice(live)
                data = gen.file_data(rng.randrange(1, 2 * PAGE_SIZE))
                fs.write(fs.lookup(path), 0, data)
                old = oracle[path]
                oracle[path] = data + old[len(data):]
            elif roll < 0.70:
                path = rng.choice(live)
                fs.unlink(path)
                del oracle[path]
            elif roll < 0.80:
                path = rng.choice(live)
                dst = new_path()
                fs.reflink(path, dst)
                oracle[dst] = oracle[path]
            elif roll < 0.90:
                fs.daemon.drain(limit=rng.randrange(1, 30))
            elif roll < 0.96:
                path = rng.choice(live)
                thorough_gc(fs, fs.lookup(path))
            else:
                fs.dev.crash()
                fs.dev.recover_view()
                fs = DeNovaFS.mount(fs.dev)
            if step % 150 == 149:
                fs.daemon.drain()
                fs.scrub()
                check_fs_invariants(fs)
                for path, data in oracle.items():
                    ino = fs.lookup(path)
                    assert fs.read(ino, 0, len(data) + 1) == data, path
        fs.daemon.drain()
        check_fs_invariants(fs)
        st = fs.space_stats()
        assert st["space_saving"] > 0.2  # dedup paid off across the soak
