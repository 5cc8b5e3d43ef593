"""Unit tests for the DWQ's per-CPU lanes, and for re-laying the
filesystem's one queue in place under ConcurrentVFS."""

import pytest

from repro.conc import ConcurrentVFS
from repro.core import Config, Variant, make_fs
from repro.dedup.dwq import DWQ, DWQNode
from repro.nova.layout import Geometry, PAGE_SIZE, Superblock
from repro.pm import DRAM, PMDevice, SimClock
from repro.pm.latency import CpuModel
from repro.workloads import DDMode, small_file_job
from tests.conc.permutations import run_workload

pytestmark = pytest.mark.conc


def make_sdwq(nshards=4, max_depth=None):
    clock = SimClock()
    q = DWQ(CpuModel(), clock)
    q.relay(nshards, max_depth)
    return q, clock


def delayed_fs(cpus=4):
    fs, _ = make_fs(Variant.DELAYED,
                    Config(device_pages=4096, max_inodes=256, cpus=cpus))
    return fs


def make_sb():
    dev = PMDevice(256 * PAGE_SIZE, model=DRAM, clock=SimClock())
    return Superblock.format(
        dev, Geometry.compute(256, max_inodes=32, dwq_save_pages=2))


class TestSharding:
    def test_routing_by_ino(self):
        q, _ = make_sdwq(nshards=4)
        for ino in range(8):
            q.enqueue(DWQNode(ino=ino, entry_addr=ino * 64))
        for s in range(4):
            assert q.shard_len(s) == 2
            assert all(n.ino % 4 == s for n in q._shards[s])

    def test_global_fifo_across_shards(self):
        """dequeue() must honour enqueue order even though storage is
        sharded — the single-threaded drain path behaves like the
        unsharded queue."""
        q, _ = make_sdwq(nshards=3)
        inos = [5, 1, 4, 2, 0, 8, 3]
        for ino in inos:
            q.enqueue(DWQNode(ino=ino, entry_addr=ino))
        assert [q.dequeue().ino for _ in inos] == inos
        assert q.dequeue() is None

    def test_dequeue_shard_is_per_lane(self):
        q, _ = make_sdwq(nshards=2)
        for ino in (0, 1, 2, 3):
            q.enqueue(DWQNode(ino=ino, entry_addr=ino))
        assert q.dequeue_shard(1).ino == 1
        assert q.dequeue_shard(1).ino == 3
        assert q.dequeue_shard(1) is None
        assert len(q) == 2

    def test_steal_from_counts_per_victim(self):
        q, _ = make_sdwq(nshards=2)
        for ino in (0, 2, 4):
            q.enqueue(DWQNode(ino=ino, entry_addr=ino))
        node = q.steal_from(0)
        assert node.ino == 0  # oldest of the victim shard
        assert q.steals == 1
        assert q.steals_by_shard == [1, 0]
        assert q.steal_from(1) is None  # raced-empty victim

    def test_bad_config_rejected(self):
        q = DWQ(CpuModel(), SimClock())
        with pytest.raises(ValueError):
            q.relay(0, None)
        with pytest.raises(ValueError):
            q.relay(2, 0)


class TestBackpressure:
    def test_is_full_gates_per_shard(self):
        q, _ = make_sdwq(nshards=2, max_depth=2)
        q.enqueue(DWQNode(ino=0, entry_addr=0))
        q.enqueue(DWQNode(ino=2, entry_addr=1))
        assert q.is_full(0)
        assert not q.is_full(1)
        q.dequeue_shard(0)
        assert not q.is_full(0)

    def test_unbounded_never_full(self):
        q, _ = make_sdwq(nshards=1, max_depth=None)
        for i in range(64):
            q.enqueue(DWQNode(ino=0, entry_addr=i))
        assert not q.is_full(0)


class TestAdoptAndPersistence:
    def test_adopt_preserves_backlog_and_stats(self):
        """Re-laying a queue in place keeps its backlog in global FIFO
        order, every node's enqueue stamp, and the cumulative stats."""
        clock = SimClock()
        q = DWQ(CpuModel(), clock)
        for ino in (3, 1, 2):
            q.enqueue(DWQNode(ino=ino, entry_addr=ino * 8))
        q.dequeue()  # ino 3 gone; stats move
        stamps = [n.enqueue_time_ns for n in q.snapshot()]
        lingering = list(q.lingering_ns)
        q.relay(4, None)
        assert q.nshards == 4 and len(q) == 2
        assert [n.enqueue_time_ns for n in q.snapshot()] == stamps
        assert (q.enqueued, q.dequeued, q.peak_length) == (3, 1, 3)
        assert q.lingering_ns == lingering
        q.enqueue(DWQNode(ino=4, entry_addr=32))  # lane 0, newest
        assert [q.dequeue().ino for _ in range(3)] == [1, 2, 4]
        assert q.lingering_ns[:1] == lingering and q.dequeued == 4

    def test_save_restore_via_base_format(self):
        """The sharded queue saves/restores through the same on-PM format
        as the unsharded one — clean-shutdown images stay compatible."""
        sb = make_sb()
        q, _ = make_sdwq(nshards=3)
        inos = [7, 2, 9, 4]
        for ino in inos:
            q.enqueue(DWQNode(ino=ino, entry_addr=ino * 64))
        q.save(sb)

        fresh, _ = make_sdwq(nshards=3)
        assert fresh.restore(Superblock.load(sb.dev)) == 4
        assert [fresh.dequeue().ino for _ in inos] == inos


class TestOneQueue:
    """ConcurrentVFS re-lays the filesystem's own queue; it never swaps
    in another."""

    def test_vfs_keeps_the_filesystems_queue(self):
        fs = delayed_fs()
        dwq = fs.dwq
        ConcurrentVFS(fs, shards=3, max_shard_depth=5)
        assert fs.dwq is dwq
        assert (dwq.nshards, dwq.max_depth) == (3, 5)

    def test_sync_drain_after_a_run_is_global_fifo(self):
        fs = delayed_fs()
        order = []
        enqueue = fs.dwq.enqueue

        def recording(node):
            order.append((node.ino, node.entry_addr))
            enqueue(node)

        fs.dwq.enqueue = recording
        run_workload(fs, small_file_job(nfiles=16, dup_ratio=0.5,
                                        threads=4),
                     dd=DDMode.none(), shards=4)
        assert len(fs.dwq) == len(order) == 16
        assert sum(fs.dwq.shard_len(s) > 0 for s in range(4)) > 1
        drained = []
        dequeue = fs.dwq.dequeue

        def taking():
            node = dequeue()
            if node is not None:
                drained.append((node.ino, node.entry_addr))
            return node

        fs.dwq.dequeue = taking
        assert fs.daemon.drain() == 16
        assert drained == order

    def test_relay_to_fewer_lanes_leaves_no_gauge_on_a_gone_lane(self):
        fs = delayed_fs()
        ConcurrentVFS(fs, shards=4)
        for i in range(8):
            fs.write(fs.create(f"/f{i}"), 0, bytes([i + 1]) * PAGE_SIZE)
        ConcurrentVFS(fs, shards=2)
        gauges = fs.obs.registry.snapshot()["gauges"]
        depths = [gauges[f"dwq.shard{s}.depth"] for s in range(4)]
        assert depths[2:] == [0, 0]
        assert depths[0] + depths[1] == len(fs.dwq) == 8
