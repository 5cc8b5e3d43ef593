"""Crash-consistency sweeps for DeNova (paper §V-C, all scenarios).

Each test builds a deterministic workload, then re-runs it crashing at
*every* persistence event (pre- and post-commit), mounts, recovers, and
checks the §V-C guarantees:

* no data loss: every reachable file reads back content it legitimately
  held at some commit point;
* RFC never undercounts live references (the data-loss hazard of
  §IV-D1);
* UCs are quiescent after recovery;
* FACT chains, delete pointers and free lists are structurally sound;
* dedupe-flags converge: after recovery plus one daemon drain, no entry
  is left ``in_process``.
"""

import hashlib

import pytest

from repro.core import Config, Variant, make_fs
from repro.dedup import DeNovaFS, recovery
from repro.dedup.fact import ENTRY, FACT
from repro.dedup.reorder import reorder_chain
from repro.failure import check_fs_invariants, sweep_crash_points
from repro.nova import PAGE_SIZE
from repro.nova.entries import (DEDUPE_IN_PROCESS, ENTRY_SIZE, WriteEntry,
                                decode_entry)
from repro.nova.inode import Inode
from repro.nova.layout import INODE_SIZE
from repro.pm import DRAM, PMDevice, SimClock


def page_of(tag: int) -> bytes:
    return bytes([tag & 0xFF]) * PAGE_SIZE


def no_in_process_entries(fs) -> bool:
    for cache in fs.caches.values():
        for _a, raw in fs.log.iter_slots(cache.inode.log_head,
                                         cache.inode.log_tail, silent=True):
            e = decode_entry(raw)
            if (isinstance(e, WriteEntry)
                    and e.dedupe_flag == DEDUPE_IN_PROCESS):
                return False
    return True


def standard_check(expected: dict):
    """A check closure verifying content + invariants + flag convergence."""

    def check(dev, point, phase):
        fs = DeNovaFS.mount(dev)
        check_fs_invariants(fs)
        assert no_in_process_entries(fs), \
            "recovery must resume every in_process transaction"
        for path, contents in expected.items():
            if not fs.exists(path):
                continue
            ino = fs.lookup(path)
            size = fs.stat(ino).size
            got = fs.read(ino, 0, size)
            assert any(got == c[:size] and size in (0, len(c))
                       for c in contents), \
                f"{path}: recovered content matches no commit point"
        # The system must be able to continue: drain + fresh dedup work.
        fs.daemon.drain()
        check_fs_invariants(fs)

    return check


class TestCrashDuringDeduplication:
    """§V-C1: crashes inside Algorithm 1 (Inconsistency Handling I-III)."""

    def test_crash_sweep_daemon_processing(self):
        def build():
            dev = PMDevice(1024 * PAGE_SIZE, model=DRAM, clock=SimClock())
            fs = DeNovaFS.mkfs(dev, max_inodes=64)
            a = fs.create("/a")
            b = fs.create("/b")
            fs.write(a, 0, page_of(1) + page_of(2) + page_of(3))
            fs.write(b, 0, page_of(9) + page_of(1) + page_of(2))

            def scenario():
                fs.daemon.drain()

            return dev, scenario

        expected = {
            "/a": [page_of(1) + page_of(2) + page_of(3)],
            "/b": [page_of(9) + page_of(1) + page_of(2)],
        }
        assert sweep_crash_points(build, standard_check(expected)) > 5

    def test_crash_sweep_daemon_processing_torn(self):
        def build():
            dev = PMDevice(1024 * PAGE_SIZE, model=DRAM, clock=SimClock())
            fs = DeNovaFS.mkfs(dev, max_inodes=64)
            a = fs.create("/a")
            b = fs.create("/b")
            fs.write(a, 0, page_of(1) * 2)
            fs.write(b, 0, page_of(1) * 2)

            def scenario():
                fs.daemon.drain()

            return dev, scenario

        expected = {"/a": [page_of(1) * 2], "/b": [page_of(1) * 2]}
        assert sweep_crash_points(build, standard_check(expected),
                                  mode="torn") > 5

    def test_recovered_queue_finishes_the_dedup(self):
        """Handling I/III: after any crash, drain leaves the same space
        savings a crash-free run reaches."""
        def build():
            dev = PMDevice(1024 * PAGE_SIZE, model=DRAM, clock=SimClock())
            fs = DeNovaFS.mkfs(dev, max_inodes=64)
            for i in range(3):
                ino = fs.create(f"/f{i}")
                fs.write(ino, 0, page_of(7) + page_of(i))

            def scenario():
                fs.daemon.drain()

            return dev, scenario

        def check(dev, point, phase):
            fs = DeNovaFS.mount(dev)
            fs.daemon.drain()
            st = fs.space_stats()
            # 3 files x 2 pages; page_of(7) shared -> 4 physical.
            assert st["logical_pages"] == 6
            assert st["physical_pages"] == 4, \
                f"space savings not re-established at point {point}"
            check_fs_invariants(fs)

        assert sweep_crash_points(build, check) > 5


class TestCrashDuringReclaim:
    """§V-C2: crashes in the RFC-checked reclaiming process."""

    def test_crash_sweep_unlink_of_shared_file(self):
        def build():
            dev = PMDevice(1024 * PAGE_SIZE, model=DRAM, clock=SimClock())
            fs = DeNovaFS.mkfs(dev, max_inodes=64)
            a = fs.create("/a")
            b = fs.create("/b")
            fs.write(a, 0, page_of(1) * 2)
            fs.write(b, 0, page_of(1) * 2)
            fs.daemon.drain()

            def scenario():
                fs.unlink("/a")

            return dev, scenario

        def check(dev, point, phase):
            fs = DeNovaFS.mount(dev)
            # /b's data must survive no matter where the unlink crashed.
            assert fs.read(fs.lookup("/b"), 0, 2 * PAGE_SIZE) \
                == page_of(1) * 2
            check_fs_invariants(fs)

        assert sweep_crash_points(build, check) > 3

    def test_crash_sweep_overwrite_of_shared_page(self):
        def build():
            dev = PMDevice(1024 * PAGE_SIZE, model=DRAM, clock=SimClock())
            fs = DeNovaFS.mkfs(dev, max_inodes=64)
            a = fs.create("/a")
            b = fs.create("/b")
            fs.write(a, 0, page_of(1))
            fs.write(b, 0, page_of(1))
            fs.daemon.drain()

            def scenario():
                fs.write(a, 0, page_of(5))

            return dev, scenario

        expected = {"/a": [page_of(1), page_of(5)], "/b": [page_of(1)]}

        def check(dev, point, phase):
            fs = DeNovaFS.mount(dev)
            assert fs.read(fs.lookup("/b"), 0, PAGE_SIZE) == page_of(1)
            got = fs.read(fs.lookup("/a"), 0, PAGE_SIZE)
            assert got in expected["/a"]
            check_fs_invariants(fs)

        assert sweep_crash_points(build, check) > 3


class TestCrashFullLifecycle:
    def test_crash_sweep_whole_workload_subsampled(self):
        """Write + dedup + overwrite + unlink, crashing on a stride."""
        def build():
            dev = PMDevice(2048 * PAGE_SIZE, model=DRAM, clock=SimClock())
            fs = DeNovaFS.mkfs(dev, max_inodes=64)

            def scenario():
                inos = []
                for i in range(4):
                    ino = fs.create(f"/f{i}")
                    fs.write(ino, 0, page_of(7) + page_of(i))
                    inos.append(ino)
                fs.daemon.drain()
                fs.write(inos[0], 0, page_of(8) * 2)
                fs.unlink("/f1")
                fs.daemon.drain()
                fs.truncate(inos[2], PAGE_SIZE)
                fs.daemon.drain()

            return dev, scenario

        def check(dev, point, phase):
            fs = DeNovaFS.mount(dev)
            check_fs_invariants(fs)
            fs.daemon.drain()
            check_fs_invariants(fs)
            # Whatever survives must read consistently.
            for i in range(4):
                path = f"/f{i}"
                if fs.exists(path):
                    ino = fs.lookup(path)
                    st = fs.stat(ino)
                    assert len(fs.read(ino, 0, st.size)) == st.size

        assert sweep_crash_points(build, check, stride=7) > 10

    def test_double_crash(self):
        """Crash during recovery-driven dedup, then recover again."""
        dev = PMDevice(1024 * PAGE_SIZE, model=DRAM, clock=SimClock())
        fs = DeNovaFS.mkfs(dev, max_inodes=64)
        a = fs.create("/a")
        b = fs.create("/b")
        fs.write(a, 0, page_of(1) * 2)
        fs.write(b, 0, page_of(1) * 2)
        dev.crash()
        dev.recover_view()
        fs2 = DeNovaFS.mount(dev)
        assert len(fs2.dwq) == 2  # rebuilt from dedupe_needed flags
        # Crash again mid-drain.
        from repro.pm.device import CrashRequested

        count = [0]

        def trip(n, d):
            count[0] += 1
            if count[0] == 3:
                raise CrashRequested("drain", 3)

        dev.hooks.on_persist = trip
        with pytest.raises(CrashRequested):
            fs2.daemon.drain()
        dev.hooks.on_persist = None
        dev.crash()
        dev.recover_view()
        fs3 = DeNovaFS.mount(dev)
        check_fs_invariants(fs3)
        fs3.daemon.drain()
        assert fs3.read(fs3.lookup("/a"), 0, 2 * PAGE_SIZE) == page_of(1) * 2
        assert fs3.read(fs3.lookup("/b"), 0, 2 * PAGE_SIZE) == page_of(1) * 2
        assert fs3.space_stats()["physical_pages"] == 1
        check_fs_invariants(fs3)


class TestRecoveryReports:
    def test_dwq_rebuild_counts_needed_entries(self):
        dev = PMDevice(1024 * PAGE_SIZE, model=DRAM, clock=SimClock())
        fs = DeNovaFS.mkfs(dev, max_inodes=64)
        for i in range(4):
            ino = fs.create(f"/f{i}")
            fs.write(ino, 0, page_of(i))
        dev.crash()
        dev.recover_view()
        fs2 = DeNovaFS.mount(dev)
        rep = fs2.last_recovery.extra["dedup"]
        assert rep["dwq_rebuilt"] == 4
        assert rep["in_process_resumed"] == 0
        assert len(fs2.dwq) == 4

    def test_stale_uc_discarded(self):
        dev = PMDevice(1024 * PAGE_SIZE, model=DRAM, clock=SimClock())
        fs = DeNovaFS.mkfs(dev, max_inodes=64)
        a = fs.create("/a")
        fs.write(a, 0, page_of(1))
        fs.daemon.drain()
        (idx, _), = fs.fact.live_entries().items()
        fs.fact.inc_uc(idx)  # a transaction that will never commit
        dev.crash()
        dev.recover_view()
        fs2 = DeNovaFS.mount(dev)
        rep = fs2.last_recovery.extra["dedup"]
        assert rep["uc_discarded"] == 1
        (idx2, ent), = fs2.fact.live_entries().items()
        assert ent.update_count == 0
        assert ent.refcount == 1


class TestRecoveryReadsFactOnce:
    """An unclean mount reads the FACT region from the device once: one
    charged whole-table read at the top of ``dedup_recover``, an in-DRAM
    copy every whole-table pass decodes, and no silent read of the
    region.  After every pass the copy is byte-equal to the device."""

    BITS, PREFIX = 10, 11

    def fp(self, salt: int) -> bytes:
        """A fingerprint in the chain at :attr:`PREFIX`."""
        body = hashlib.sha1(salt.to_bytes(8, "little")).digest()
        shift = 64 - self.BITS
        head = int.from_bytes(body[:8], "big") & ((1 << shift) - 1)
        return (head | self.PREFIX << shift).to_bytes(8, "big") + body[8:]

    @pytest.fixture
    def audit(self, monkeypatch):
        """A mount that logs every device read inside ``dedup_recover``
        and compares the copy with the region after each pass; returns
        the fs, the reads that touched the region and the passes
        compared."""
        log = {"reads": None, "passes": []}

        def compare(name, fact):
            assert fact._dram is not None, f"{name} ran without the copy"
            region = PMDevice.read_silent(fact.dev, fact.base,
                                          fact.total * ENTRY)
            assert bytes(fact._dram) == region, f"copy stale after {name}"
            log["passes"].append(name)

        def wrap(owner, name):
            real = getattr(owner, name)

            def wrapped(first, *args):             # a FACT or the fs
                out = real(first, *args)
                if log["reads"] is not None:       # inside dedup_recover
                    compare(name, getattr(first, "fact", first))
                return out
            monkeypatch.setattr(owner, name, wrapped)

        for name in ("structural_recover", "rebuild_iaa_free",
                     "discard_all_uc", "remove_dead", "live_entries"):
            wrap(FACT, name)
        for name in ("recover_reorders", "_resume_step6",
                     "_repair_undercounts"):
            wrap(recovery, name)
        real_recover = recovery.dedup_recover

        def dedup_recover(fs, report):
            log["reads"] = []
            try:
                return real_recover(fs, report)
            finally:
                reads, log["reads"] = log["reads"], None
                lo, hi = fs.fact.base, fs.fact.base + fs.fact.total * ENTRY
                log["region"] = [(kind, a - lo, n) for kind, a, n in reads
                                 if a < hi and a + n > lo]
        monkeypatch.setattr(recovery, "dedup_recover", dedup_recover)

        def mount(dev):
            for kind in ("read", "read_view", "read_silent", "scan"):
                real = getattr(dev, kind)

                def logged(addr, n, *rest, _real=real, _kind=kind, **kw):
                    if log["reads"] is not None:    # a scan's n is a stride
                        count = (rest or [kw.get("count", 1)])[0]
                        span = n if _kind != "scan" else (count - 1) * n + 1
                        log["reads"].append((_kind, addr, span))
                    return _real(addr, n, *rest, **kw)
                setattr(dev, kind, logged)
            log["passes"], log["region"] = [], None
            fs = DeNovaFS.mount(dev)
            return fs, log["region"], log["passes"]

        return mount

    def check_once(self, fs, region, passes):
        size = fs.fact.total * ENTRY
        assert region is not None                 # an unclean mount
        assert [r for r in region if r[2] > ENTRY] == [("read_view", 0, size)]
        assert not [r for r in region if r[0] in ("read_silent", "scan")]
        assert fs.fact._dram is None              # let go with recovery
        assert {"recover_reorders", "structural_recover", "rebuild_iaa_free",
                "discard_all_uc", "remove_dead", "live_entries",
                "_repair_undercounts"} <= set(passes)

    @pytest.mark.parametrize("mode", ["discard", "torn"])
    def test_crash_sweep_daemon_processing(self, audit, mode):
        def build():
            dev = PMDevice(1024 * PAGE_SIZE, model=DRAM, clock=SimClock())
            fs = DeNovaFS.mkfs(dev, max_inodes=64)
            a, b = fs.create("/a"), fs.create("/b")
            fs.write(a, 0, page_of(1) + page_of(2) + page_of(3))
            fs.write(b, 0, page_of(9) + page_of(1) + page_of(2))
            return dev, fs.daemon.drain

        resumed = []

        def check(dev, point, phase):
            fs, region, passes = audit(dev)
            self.check_once(fs, region, passes)
            resumed.append(fs.last_recovery.extra["dedup"]
                           ["in_process_resumed"])
            check_fs_invariants(fs)

        assert sweep_crash_points(build, check, mode=mode) > 5
        assert any(resumed)                       # Handling II ran

    def test_crash_sweep_reorder_and_iaa_insert(self, audit):
        """Every point of a Fig. 7 reorder, then of an IAA insert whose
        crash before the publish leaves an orphan slot."""
        def build():
            dev = PMDevice(1024 * PAGE_SIZE, model=DRAM, clock=SimClock())
            fs = DeNovaFS.mkfs(dev, max_inodes=64,
                               fact_prefix_bits=self.BITS)
            fact = fs.fact
            for salt, rfc in enumerate((1, 5, 2, 8, 3)):
                idx = fact.insert(self.fp(salt), 60 + salt)
                for _ in range(rfc):
                    fact.commit_uc(idx)
                    fact.inc_uc(idx)
                fact.discard_uc(idx)

            def scenario():
                assert reorder_chain(fact, self.PREFIX)
                fact.insert(self.fp(9), 70)
            return dev, scenario

        seen = []

        def check(dev, point, phase):
            fs, region, passes = audit(dev)
            self.check_once(fs, region, passes)
            seen.append(fs.last_recovery.extra["dedup"]["structural"])
            fs.fact.check_chains()

        assert sweep_crash_points(build, check,
                                  mode=("discard", "torn")) > 20
        assert any(rep["reorders_recovered"] for rep in seen)
        assert any(rep["orphans_zeroed"] for rep in seen)


class TestUncleanMountReadsEachLogOnce:
    """An unclean mount reads each valid inode record, each log chain
    header and each committed log slot exactly once: the table scan
    releases torn records as it reaches them, the log replay reads slots
    from the chain its tail check walked, the usage count takes that
    chain, and the flag scan takes the entries the replay decoded."""

    def image(self):
        """Two directories, a file whose log spans three pages, entries
        ``dedupe_complete``, ``dedupe_needed`` and ``in_process``, and a
        torn record (valid flag persisted, ino field not) — crashed."""
        dev = PMDevice(1024 * PAGE_SIZE, model=DRAM, clock=SimClock())
        fs = DeNovaFS.mkfs(dev, max_inodes=64)
        fs.mkdir("/d")
        files = [fs.create(f"/d/f{i}") for i in range(3)]
        for i, ino in enumerate(files):
            fs.write(ino, 0, page_of(i) + page_of(7))
        fs.daemon.drain()                                 # complete
        long = fs.create("/long")
        for i in range(150):                              # needed
            fs.write(long, (i % 4) * PAGE_SIZE, page_of(i))
        fs.write(files[1], PAGE_SIZE, page_of(8))
        addr = fs.caches[files[1]].tail - ENTRY_SIZE
        fs.set_dedupe_flag(addr, DEDUPE_IN_PROCESS)       # Handling II
        torn = fs.itable.alloc()
        raw = bytearray(Inode(ino=torn, valid=1).pack())
        raw[0:8] = bytes(8)
        dev.write(fs.itable.addr_of(torn), bytes(raw), persist=True)
        dev.crash("discard")
        dev.recover_view()
        return dev, torn

    @staticmethod
    def mount_logging_reads(dev):
        """Mount ``dev``; returns the fs and every device read the mount
        made, a scan as ``("scan", addr, stride, bytes returned)``."""
        reads = []
        for kind in ("read", "read_view", "read_silent"):
            real = getattr(dev, kind)

            def logged(addr, n, _real=real, _kind=kind):
                reads.append((_kind, addr, n))
                return _real(addr, n)
            setattr(dev, kind, logged)
        real_scan = dev.scan

        def scan(addr, stride, count, stop=None):
            found = real_scan(addr, stride, count, stop=stop)
            reads.append(("scan", addr, stride, len(found)))
            return found
        dev.scan = scan
        try:
            return DeNovaFS.mount(dev), reads
        finally:
            del dev.read, dev.read_view, dev.read_silent, dev.scan

    @staticmethod
    def logs(fs):
        """Every log page and committed slot of the mounted inodes."""
        pages, slots = [], []
        for cache in fs.caches.values():
            pages += fs.log.iter_pages(cache.inode.log_head, silent=True)
            slots += [a for a, _ in fs.log.iter_slots(
                cache.inode.log_head, cache.inode.log_tail, silent=True)]
        return pages, slots

    def test_each_record_header_and_slot_is_read_once(self):
        dev, torn = self.image()
        fs, reads = self.mount_logging_reads(dev)
        rep = fs.last_recovery
        assert rep.extra["corrupt_inodes_released"] == 1
        assert rep.extra["dedup"]["in_process_resumed"] == 1
        assert rep.extra["dedup"]["dwq_rebuilt"] >= 150
        assert rep.orphans_collected == 0

        pages, slots = self.logs(fs)
        assert len(pages) > len(fs.caches) and len(slots) > 150
        in_logs = set(pages)
        log_reads = [r for r in reads
                     if r[0] != "scan" and r[1] // PAGE_SIZE in in_logs]
        assert sorted(log_reads) == sorted(
            [("read", page * PAGE_SIZE, 8) for page in pages]
            + [("read", a, ENTRY_SIZE) for a in slots])

        table = fs.itable
        table_end = table.base + table.capacity * INODE_SIZE
        record_reads = [r for r in reads if r[0] != "scan"
                        and table.base <= r[1] < table_end]
        assert record_reads == [("read", table.addr_of(i), INODE_SIZE)
                                for i in sorted([*fs.caches, torn])]
        scanned = [r for r in reads if r[0] == "scan"]
        assert all(stride == INODE_SIZE for _k, _a, stride, _n in scanned)
        slots_scanned = [(a - table.base) // INODE_SIZE + k
                         for _k, a, _s, n in scanned for k in range(n)]
        assert slots_scanned == list(range(table.capacity))

    def test_an_overflowed_clean_mount_reads_each_slot_once(self):
        """A clean mount whose saved DWQ overflowed takes its flag scan
        from the replay that hydrates the checkpoint stubs."""
        dev = PMDevice(4096 * PAGE_SIZE, model=DRAM, clock=SimClock())
        fs = DeNovaFS.mkfs(dev, max_inodes=512, dwq_save_pages=1)
        n = fs.dwq.capacity_on(fs.geo) + 40
        for i in range(n):
            fs.write(fs.create(f"/f{i}"), 0, page_of(i))
        fs.unmount()
        fs, reads = self.mount_logging_reads(dev)
        assert fs.last_recovery.extra["dwq_restored"] == "overflow->scan"
        assert len(fs.dwq) == n
        pages, slots = self.logs(fs)
        in_logs = set(pages)
        log_reads = [r for r in reads
                     if r[0] != "scan" and r[1] // PAGE_SIZE in in_logs
                     and r[2] == ENTRY_SIZE]
        assert sorted(log_reads) == sorted(("read", a, ENTRY_SIZE)
                                           for a in slots)


class TestUndecodableLogSlot:
    """A committed log slot that decodes to nothing (a corrupt entry
    type) is skipped and counted by the replay, on every variant: the
    dedup flag scan reads only what the replay decoded."""

    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_mounts_and_counts_the_slot(self, variant):
        fs, _dd = make_fs(variant, Config(device_pages=1024, max_inodes=64))
        ino = fs.create("/f")
        fs.write(ino, 0, page_of(1))
        fs.write(ino, PAGE_SIZE, page_of(2))
        cache = fs.caches[ino]
        _first, (second, _raw) = fs.log.iter_slots(
            cache.inode.log_head, cache.tail, silent=True)
        fs.dev.write(second, b"\x7f", persist=True)       # etype byte
        fs.dev.crash("discard")
        fs.dev.recover_view()

        fs2 = type(fs).mount(fs.dev)
        assert fs2.last_recovery.corrupt_entries_skipped == 1
        assert fs2.read(ino, 0, PAGE_SIZE) == page_of(1)
