"""Unit tests for the Deduplication Work Queue."""

from repro.dedup.dwq import DWQ, DWQNode
from repro.nova.layout import Geometry, PAGE_SIZE, Superblock
from repro.pm import DRAM, PMDevice, SimClock
from repro.pm.latency import CpuModel


def lingering_percentile(q, p: float) -> float:
    """The Fig. 10 statistic: the p-quantile of lingering time (ns)."""
    if not q.lingering_ns:
        return 0.0
    data = sorted(q.lingering_ns)
    return data[min(len(data) - 1, int(p * len(data)))]


def make_dwq():
    clock = SimClock()
    return DWQ(CpuModel(), clock), clock


def make_sb():
    dev = PMDevice(256 * PAGE_SIZE, model=DRAM, clock=SimClock())
    return Superblock.format(
        dev, Geometry.compute(256, max_inodes=32, dwq_save_pages=2))


class TestQueueBasics:
    def test_fifo_order(self):
        q, _ = make_dwq()
        for i in range(5):
            q.enqueue(DWQNode(ino=i, entry_addr=i * 64))
        got = [q.dequeue().ino for _ in range(5)]
        assert got == [0, 1, 2, 3, 4]

    def test_dequeue_empty_returns_none(self):
        q, _ = make_dwq()
        assert q.dequeue() is None

    def test_counters_and_peak(self):
        q, _ = make_dwq()
        for i in range(4):
            q.enqueue(DWQNode(ino=1, entry_addr=i))
        q.dequeue()
        q.enqueue(DWQNode(ino=1, entry_addr=9))
        assert q.enqueued == 5
        assert q.dequeued == 1
        assert q.peak_length == 4
        assert len(q) == 4

    def test_peek_addrs(self):
        q, _ = make_dwq()
        q.enqueue(DWQNode(ino=1, entry_addr=100))
        q.enqueue(DWQNode(ino=2, entry_addr=200))
        assert {n.entry_addr for n in q.snapshot()} == {100, 200}

    def test_enqueue_charges_dram_touch_only(self):
        q, clock = make_dwq()
        t0 = clock.now_ns
        q.enqueue(DWQNode(ino=1, entry_addr=0))
        cost = clock.now_ns - t0
        # §IV-B1: enqueue is tiny next to any NVM access (>= 90 ns write).
        assert 0 < cost < 50


class TestLingering:
    def test_lingering_time_recorded(self):
        q, clock = make_dwq()
        q.enqueue(DWQNode(ino=1, entry_addr=0))
        clock.advance(1000.0)
        q.enqueue(DWQNode(ino=1, entry_addr=64))
        clock.advance(500.0)
        q.dequeue()
        q.dequeue()
        assert len(q.lingering_ns) == 2
        assert q.lingering_ns[0] >= 1500.0
        assert q.lingering_ns[1] >= 500.0
        assert q.lingering_ns[0] > q.lingering_ns[1]

    def test_percentile(self):
        q, clock = make_dwq()
        for i in range(10):
            q.enqueue(DWQNode(ino=1, entry_addr=i))
            clock.advance(100.0)
        while q.dequeue():
            pass
        p90 = lingering_percentile(q, 0.9)
        p10 = lingering_percentile(q, 0.1)
        assert p90 > p10

    def test_percentile_empty(self):
        q, _ = make_dwq()
        assert lingering_percentile(q, 0.9) == 0.0


class TestPersistence:
    def test_save_restore_roundtrip(self):
        sb = make_sb()
        q = DWQ(CpuModel(), sb.dev.clock)
        for i in range(7):
            q.enqueue(DWQNode(ino=10 + i, entry_addr=4096 + 64 * i))
        assert q.save(sb) == 7
        q2 = DWQ(CpuModel(), sb.dev.clock)
        assert q2.restore(Superblock.load(sb.dev)) == 7
        nodes = [q2.dequeue() for _ in range(7)]
        assert [n.ino for n in nodes] == list(range(10, 17))
        assert [n.entry_addr for n in nodes] == [4096 + 64 * i
                                                 for i in range(7)]

    def test_restore_clears_saved_count(self):
        sb = make_sb()
        q = DWQ(CpuModel(), sb.dev.clock)
        q.enqueue(DWQNode(ino=1, entry_addr=64))
        q.save(sb)
        q2 = DWQ(CpuModel(), sb.dev.clock)
        q2.restore(Superblock.load(sb.dev))
        q3 = DWQ(CpuModel(), sb.dev.clock)
        assert q3.restore(Superblock.load(sb.dev)) == 0

    def test_save_empty_queue(self):
        sb = make_sb()
        q = DWQ(CpuModel(), sb.dev.clock)
        assert q.save(sb) == 0
        assert Superblock.load(sb.dev).dwq_saved_count == 0

    def test_save_overflow_uses_sentinel(self):
        sb = make_sb()
        q = DWQ(CpuModel(), sb.dev.clock)
        cap = q.capacity_on(sb.geo)
        for i in range(cap + 10):
            q.enqueue(DWQNode(ino=1, entry_addr=i * 64))
        assert q.save(sb) == 0  # nothing truncated silently
        q2 = DWQ(CpuModel(), sb.dev.clock)
        # The caller must flag-scan.
        assert q2.restore(Superblock.load(sb.dev)) == -1
        # The sentinel is one-shot.
        q3 = DWQ(CpuModel(), sb.dev.clock)
        assert q3.restore(Superblock.load(sb.dev)) == 0

    def test_overflowed_clean_unmount_loses_no_dedup_work(self):
        """End-to-end: backlog > save area at clean unmount, then mount:
        every entry still reaches the daemon."""
        from repro.dedup import DeNovaFS
        from repro.nova.layout import PAGE_SIZE as PG

        dev = PMDevice(4096 * PG, model=DRAM, clock=SimClock())
        fs = DeNovaFS.mkfs(dev, max_inodes=512, dwq_save_pages=1)
        cap = fs.dwq.capacity_on(fs.geo)
        n = cap + 40
        for i in range(n):
            ino = fs.create(f"/f{i}")
            fs.write(ino, 0, bytes([7]) * PG)
        assert len(fs.dwq) == n
        fs.unmount()
        fs2 = DeNovaFS.mount(dev)
        assert len(fs2.dwq) == n  # rebuilt from flags, nothing lost
        fs2.daemon.drain()
        assert fs2.space_stats()["physical_pages"] == 1

    def test_saved_queue_survives_crash(self):
        sb = make_sb()
        q = DWQ(CpuModel(), sb.dev.clock)
        q.enqueue(DWQNode(ino=5, entry_addr=8192))
        q.save(sb)
        sb.dev.crash()
        sb.dev.recover_view()
        q2 = DWQ(CpuModel(), sb.dev.clock)
        assert q2.restore(Superblock.load(sb.dev)) == 1
        assert q2.dequeue().ino == 5
