"""Front-tier persistent staging log (repro.nova.staging).

Covers the whole staged-op lifecycle: absorption (writes *and* creates),
read-your-writes overlay, conflict drains, unlink discard ordering,
clean-unmount destage, crash replay (including torn records and
watermark idempotence), quota parity with the direct path, slab-full
fallback, the fuzz harness integration, and destage determinism under
the workload runner.
"""

import pytest

from repro.core import Config, Variant, make_fs
from repro.nova import PAGE_SIZE
from repro.nova.fs import FSError, NoSpace, NovaFS
from repro.pm import DRAM, PMDevice, SimClock
from repro.tenant import QuotaExceeded

pytestmark = pytest.mark.staging

PAGE = b"\x5a" * PAGE_SIZE


def build_fs(variant=Variant.DELAYED, **kw):
    kw.setdefault("device_pages", 2048)
    kw.setdefault("max_inodes", 128)
    kw.setdefault("staging", True)
    fs, _dd = make_fs(variant, Config(**kw))
    return fs


def settle(fs):
    if hasattr(fs, "daemon"):
        fs.daemon.drain()


def crash_remount(fs, mode="discard"):
    fs.dev.crash(mode)
    return type(fs).mount(fs.dev.recover_view())


# ---------------------------------------------------------------- absorb


class TestAbsorb:
    def test_small_write_absorbed_and_read_back(self):
        fs = build_fs()
        ino = fs.create("/f")
        fs.write(ino, 0, b"hello staging")
        st = fs.staging.stats()
        assert st["absorbed"] == 1
        assert st["pending_records"] >= 1
        # Read-your-writes through the overlay, before any destage.
        assert fs.read(ino, 0, 13) == b"hello staging"
        assert fs.stat(ino).size == 13

    def test_create_absorbed(self):
        fs = build_fs()
        ino = fs.create("/staged")
        st = fs.staging.stats()
        assert st["absorbed_creates"] == 1
        assert fs.staging.has_pending_create(ino)
        assert fs.lookup("/staged") == ino

    def test_large_write_takes_direct_path(self):
        fs = build_fs()
        ino = fs.create("/f")
        fs.write(ino, 0, PAGE * 2)          # > threshold: direct
        assert fs.staging.stats()["absorbed"] == 0
        assert fs.read(ino, 0, PAGE_SIZE) == PAGE

    def test_overlay_later_record_wins(self):
        fs = build_fs()
        ino = fs.create("/f")
        fs.write(ino, 0, b"AAAA")
        fs.write(ino, 2, b"BB")
        assert fs.read(ino, 0, 4) == b"AABB"

    def test_staging_disabled_by_default(self):
        fs, _dd = make_fs(Variant.DELAYED,
                          Config(device_pages=1024, max_inodes=64))
        ino = fs.create("/f")
        fs.write(ino, 0, b"x")
        assert not fs.staging_enabled
        assert fs.staging.stats()["absorbed"] == 0
        assert fs.staging.stats()["absorbed_creates"] == 0

    def test_enable_requires_region(self):
        fs, _dd = make_fs(Variant.DELAYED,
                          Config(device_pages=1024, max_inodes=64,
                                 staging_pages=0))
        assert fs.staging is None
        with pytest.raises(FSError, match="no staging region"):
            fs.enable_staging()


# ---------------------------------------------------------------- destage


class TestDestage:
    def test_drain_all_persists_through_write_path(self):
        fs = build_fs()
        ino = fs.create("/f")
        fs.write(ino, 0, b"payload")
        n = fs.staging.drain_all()
        assert n == 2                        # create + write
        assert fs.staging.stats()["pending_records"] == 0
        assert fs.read(ino, 0, 7) == b"payload"

    def test_big_write_drains_staged_records_first(self):
        fs = build_fs()
        ino = fs.create("/f")
        fs.write(ino, 0, b"small")
        fs.write(ino, 0, PAGE * 2)           # conflicting direct write
        assert not fs.staging.has_pending(ino)
        assert fs.read(ino, 0, PAGE_SIZE) == PAGE

    def test_truncate_drains(self):
        fs = build_fs()
        ino = fs.create("/f")
        fs.write(ino, 0, b"0123456789")
        fs.truncate(ino, 4)
        # The staged create + write destaged before the truncate ran
        # (the zero-fill head rewrite may stage a fresh record after).
        assert fs.staging.stats()["destaged"] >= 2
        assert fs.stat(ino).size == 4
        assert fs.read(ino, 0, 4) == b"0123"
        fs2 = crash_remount(fs)
        ino2 = fs2.lookup("/f")
        assert fs2.stat(ino2).size == 4
        assert fs2.read(ino2, 0, 4) == b"0123"

    def test_unmount_drains_and_remount_is_clean(self):
        fs = build_fs()
        ino = fs.create("/f")
        fs.write(ino, 0, b"durable")
        fs.unmount()
        fs2 = type(fs).mount(fs.dev)
        rep = fs2.last_recovery.extra.get("staging", {})
        assert rep.get("replayed", 0) == 0   # nothing left to replay
        assert fs2.read(fs2.lookup("/f"), 0, 7) == b"durable"

    def test_destage_order_preserved(self):
        fs = build_fs()
        ino = fs.create("/f")
        for i in range(8):
            fs.write(ino, i, bytes([0x30 + i]))
        fs.staging.drain_ino(ino)
        assert fs.read(ino, 0, 8) == b"01234567"


# ------------------------------------------------------------- namespace


class TestNamespaceConflicts:
    def test_unlink_staged_create_discards(self):
        """A file that only ever existed in the staging log leaves no
        trace: discard, not drain (no inode/dentry is ever persisted)."""
        fs = build_fs()
        fs.create("/ephemeral")
        before = fs.staging.stats()["destaged"]
        fs.unlink("/ephemeral")
        st = fs.staging.stats()
        assert st["destaged"] == before      # nothing was destaged
        assert st["discarded"] >= 1
        assert not fs.exists("/ephemeral")

    def test_unlink_staged_create_crash_no_resurrection(self):
        """Watermark persists before the dentry-remove commit, so no
        crash point can replay the create after the unlink committed."""
        fs = build_fs()
        fs.create("/gone")
        fs.unlink("/gone")
        fs2 = crash_remount(fs)
        assert not fs2.exists("/gone")

    def test_refused_unlink_keeps_staged_create(self):
        """An unlink refused for want of a parent log page leaves the
        staged create in place: the file survives a crash."""
        dev = PMDevice(512 * PAGE_SIZE, model=DRAM, clock=SimClock())
        fs = NovaFS.mkfs(dev, max_inodes=128)
        fs.mkdir("/d")
        for i in range(63):     # /d's log tail lands on a page boundary
            fs.symlink("/x", f"/d/l{i}")
        fs.enable_staging()
        ino = fs.create("/d/f")
        assert fs.staging.has_pending_create(ino)
        hog = []
        while fs.allocator.free_pages:
            hog.append(fs.allocator.alloc(1, 0))
        with pytest.raises(NoSpace):
            fs.unlink("/d/f")
        assert fs.exists("/d/f") and fs.staging.has_pending_create(ino)
        for block in hog:
            fs.allocator.free(block, 1, 0)
        assert crash_remount(fs).exists("/d/f")

    def test_rename_drains_pending_create(self):
        fs = build_fs()
        ino = fs.create("/a")
        fs.write(ino, 0, b"data")
        fs.rename("/a", "/b")
        assert not fs.staging.has_pending_create(ino)
        fs2 = crash_remount(fs)
        assert not fs2.exists("/a")
        got = fs2.read(fs2.lookup("/b"), 0, 4)
        assert got in (b"data", b"\x00\x00\x00\x00")  # write may be staged

    def test_link_drains_pending_create(self):
        fs = build_fs()
        ino = fs.create("/orig")
        fs.link("/orig", "/alias")
        assert not fs.staging.has_pending_create(ino)
        fs2 = crash_remount(fs)
        assert fs2.lookup("/orig") == fs2.lookup("/alias")


# --------------------------------------------------------------- recovery


class TestCrashReplay:
    def test_staged_write_survives_crash(self):
        fs = build_fs()
        ino = fs.create("/f")
        fs.write(ino, 0, b"must survive")
        fs2 = crash_remount(fs)
        rep = fs2.last_recovery.extra["staging"]
        assert rep["replayed"] == 2          # create + write
        ino2 = fs2.lookup("/f")
        assert ino2 == ino                   # replay reuses the staged ino
        assert fs2.read(ino2, 0, 12) == b"must survive"

    def test_replay_idempotent_watermark(self):
        """A second remount replays nothing: the first replay advanced
        the persisted watermark past every record."""
        fs = build_fs()
        ino = fs.create("/f")
        fs.write(ino, 0, b"once")
        fs2 = crash_remount(fs)
        settle(fs2)
        fs2.unmount()
        fs3 = type(fs2).mount(fs2.dev)
        rep = fs3.last_recovery.extra.get("staging", {})
        assert rep.get("replayed", 0) == 0
        assert fs3.read(fs3.lookup("/f"), 0, 4) == b"once"

    def test_torn_record_not_replayed(self):
        """Corrupting a staged record's payload fails its CRC: the
        append never committed, so replay must stop at it."""
        fs = build_fs()
        ino = fs.create("/f")
        fs.write(ino, 0, b"good")
        fs.staging.drain_all()               # watermark covers both
        fs.write(ino, 100, b"torn")
        slab = fs.staging._slabs[ino % fs.staging.nslabs]
        rec = slab.recs[-1]
        assert rec.data == b"torn"
        # Flip one durable payload byte behind the CRC's back.
        off = slab.write_off - 64            # last 64 B-aligned record
        fs.dev.write(off + 40, b"\xff", nt=True)
        fs.dev.sfence()
        fs2 = crash_remount(fs)
        # Nothing replayed: a clean scan doesn't even report staging.
        rep = fs2.last_recovery.extra.get("staging", {"replayed": 0})
        assert rep["replayed"] == 0
        assert fs2.read(fs2.lookup("/f"), 0, 4) == b"good"
        assert fs2.stat(fs2.lookup("/f")).size == 4  # torn write undone

    def test_scan_stops_at_a_previous_generations_leftover(self):
        """A rewound slab still holds the last generation's frames past
        the new terminator.  If that terminator is lost (its words never
        persisted) the scan walks into a CRC-valid old frame — whose
        ``seq`` does not increase, which must end the log right there."""
        fs = build_fs(staging_pages=16)
        ino = fs.create("/f")                # seq 1, one 64 B frame
        for i in range(3):
            fs.write(ino, i * 4, b"gen1")    # seq 2..4, 64 B frames
        slab = fs.staging._slabs[0]
        second = slab.data_base + 64
        old_frame = fs.dev.read_silent(second, 64)
        fs.staging.drain_all()               # watermark 4, slab rewinds
        fs.write(ino, 0, b"gen2")            # seq 5 lands on frame 1
        assert fs.dev.read_silent(second, 64) == bytes(64)
        fs.dev.write(second, old_frame, nt=True)    # the lost terminator
        fs.dev.sfence()
        fs2 = crash_remount(fs)
        rep = fs2.last_recovery.extra["staging"]
        assert (rep["scanned"], rep["replayed"]) == (1, 1)
        assert fs2.read(fs2.lookup("/f"), 0, 12) == b"gen2gen1gen1"

    def test_shared_slab_drain_never_replays_superseded_write(self):
        """Slabs are shared (ino % nslabs): with one slab, /blocker's
        pending records sit ahead of /victim's, so the prefix watermark
        cannot cover /victim's drained records.  The per-record
        tombstones must — a crash after the conflicting direct write
        must never replay the stale staged bytes over it."""
        fs = build_fs(staging_pages=16)      # one slab for every ino
        blocker = fs.create("/blocker")
        fs.write(blocker, 0, b"hold")        # stays pending in the slab
        victim = fs.create("/victim")
        fs.write(victim, 0, b"stalebytes")
        fs.write(victim, 0, PAGE * 2)        # conflict: drains, then CoW
        assert fs.staging.has_pending(blocker)   # watermark is stuck
        fs2 = crash_remount(fs)
        v2 = fs2.lookup("/victim")
        assert fs2.read(v2, 0, 10) == PAGE[:10]  # not b"stalebytes"
        assert fs2.read(fs2.lookup("/blocker"), 0, 4) == b"hold"

    def test_shared_slab_unlink_never_resurrects_staged_create(self):
        """Same shared-slab squeeze for discard: /gone's staged create
        cannot be covered by the watermark while /keep's records are
        pending, so its tombstone must keep a post-unlink crash from
        resurrecting the file."""
        fs = build_fs(staging_pages=16)
        keep = fs.create("/keep")
        fs.write(keep, 0, b"keep")           # pending ahead in the slab
        fs.create("/gone")
        fs.unlink("/gone")
        fs2 = crash_remount(fs)
        assert not fs2.exists("/gone")
        assert fs2.read(fs2.lookup("/keep"), 0, 4) == b"keep"

    def test_shared_slab_discarded_body_never_lands_on_reused_ino(self):
        """_drop_file_body's discard must also invalidate durably: a
        released-and-reused ino must not inherit its dead predecessor's
        staged writes after a crash."""
        fs = build_fs(staging_pages=16)
        blocker = fs.create("/blocker")
        fs.write(blocker, 0, b"hold")        # keeps the watermark stuck
        victim = fs.create("/victim")
        fs.staging.drain_ino(victim)         # /victim fully persistent
        fs.write(victim, 0, b"DEADBEEF")     # staged overwrite, pending
        fs.unlink("/victim")                 # discards + releases ino
        fresh = fs.create("/fresh")          # may reuse victim's ino
        fs2 = crash_remount(fs)
        if fs2.exists("/fresh"):
            f2 = fs2.lookup("/fresh")
            assert f2 == fresh
            assert fs2.stat(f2).size == 0    # no stale bytes replayed

    def test_replay_discards_unlinked_target(self):
        fs = build_fs()
        a = fs.create("/keep")
        fs.write(a, 0, b"keep")
        fs.staging.drain_all()               # /keep fully persistent
        fs.write(a, 0, b"KEEP")              # staged overwrite
        fs.unlink("/keep")                   # discards the staged record
        fs2 = crash_remount(fs)
        # Either outcome is legal (unlink committed or not), but the
        # staged overwrite must never land on a deleted inode silently.
        if fs2.exists("/keep"):
            assert fs2.read(fs2.lookup("/keep"), 0, 4) in (b"keep", b"KEEP")


# ----------------------------------------------------------------- quota


class TestQuotaParity:
    def test_staged_and_direct_charges_identical(self):
        charges = {}
        for staged in (True, False):
            fs = build_fs()
            if not staged:
                fs.staging_enabled = False
            fs.tenant_create("tn0")
            ino = fs.create("/t/tn0/f")
            fs.write(ino, 0, b"x" * 100)
            fs.write(ino, PAGE_SIZE, b"y" * 100)
            if staged:
                fs.staging.drain_all()
            settle(fs)
            s = fs.tenant_stats()["tn0"]
            charges[staged] = (s["used_pages"], s["used_inodes"])
        assert charges[True] == charges[False] == (2, 2)

    def test_quota_enforced_at_stage_time(self):
        fs = build_fs()
        fs.tenant_create("tight", quota_pages=2)
        ino = fs.create("/t/tight/f")
        fs.write(ino, 0, b"a")               # page 0
        fs.write(ino, PAGE_SIZE, b"b")       # page 1
        with pytest.raises(QuotaExceeded):
            fs.write(ino, 2 * PAGE_SIZE, b"c")
        # The two admitted writes still destage fine under the bypass.
        assert fs.staging.drain_all() >= 2
        assert fs.tenant_stats()["tight"]["used_pages"] == 2

    def test_burst_to_same_page_gross_check_matches_direct(self):
        """The staged gross check mirrors the direct path's: an
        overwrite at a full quota is rejected either way, and with
        headroom the burst net-charges one page either way."""
        for staged in (True, False):
            fs = build_fs()
            if not staged:
                fs.staging_enabled = False
            fs.tenant_create("one", quota_pages=1)
            ino = fs.create("/t/one/f")
            fs.write(ino, 0, b"z" * 16)
            with pytest.raises(QuotaExceeded):
                fs.write(ino, 16, b"z" * 16)   # gross CoW check: 1+1 > 1
        for staged in (True, False):
            fs = build_fs()
            if not staged:
                fs.staging_enabled = False
            fs.tenant_create("two", quota_pages=2)
            ino = fs.create("/t/two/f")
            for i in range(4):
                fs.write(ino, i * 16, b"z" * 16)
            if staged:
                fs.staging.drain_all()
            settle(fs)
            assert fs.tenant_stats()["two"]["used_pages"] == 1


# ------------------------------------------------------------ back-pressure


class TestSlabPressure:
    def test_slab_full_falls_back_to_direct(self):
        fs = build_fs(staging_pages=16)      # one slab, ~15 records
        ino = fs.create("/f")
        for i in range(40):
            fs.write(ino, i * PAGE_SIZE, PAGE)
        st = fs.staging.stats()
        assert st["fallbacks"] >= 1          # slab filled at least once
        for i in range(40):
            assert fs.read(ino, i * PAGE_SIZE, PAGE_SIZE) == PAGE

    def test_slab_fill_reports_occupancy(self):
        fs = build_fs()
        ino = fs.create("/f")
        assert fs.staging.slab_fill(ino) >= 0.0
        fs.write(ino, 0, PAGE)
        assert fs.staging.slab_fill(ino) > 0.0
        fs.staging.drain_ino(ino)
        assert fs.staging.slab_fill(ino) == 0.0


# ------------------------------------------------------------------ fuzz


class TestFuzzIntegration:
    def test_run_case_with_staging_clean(self):
        from repro.fuzz.diff import FuzzConfig, run_case
        from repro.fuzz.gen import generate_sequence
        cfg = FuzzConfig(seed=7, seq_ops=30, budget=4, staging=True)
        ops = generate_sequence(7, 0, 30)
        res = run_case(ops, cfg)
        assert res.ok, [str(v) for v in res.violations]
        assert res.crash_points > 0

    def test_run_case_with_staging_tenants(self):
        from repro.fuzz.diff import FuzzConfig, run_case
        from repro.fuzz.gen import generate_tenant_sequence
        cfg = FuzzConfig(seed=11, seq_ops=30, budget=4, staging=True,
                         tenants=2)
        ops = generate_tenant_sequence(11, 0, 30, tenants=2)
        res = run_case(ops, cfg)
        assert res.ok, [str(v) for v in res.violations]


# ------------------------------------------------------------- the runner


class TestRunnerDeterminism:
    @staticmethod
    def _final_state(staging: bool):
        from repro.workloads import run_workload, small_file_job
        fs, dd = make_fs(Variant.DELAYED,
                         Config(device_pages=4096, max_inodes=256,
                                cpus=4, staging=staging))
        spec = small_file_job(nfiles=48, dup_ratio=0.5, threads=4)
        res = run_workload(fs, spec, dd, destage_workers=1)
        settle(fs)
        state = {}
        for path, _ino, cache in fs.walk("/"):
            if cache.inode.itype == 2:
                continue
            ino = fs.lookup(path)
            size = fs.stat(ino).size
            state[path] = fs.read(ino, 0, size)
        return res, state, fs

    def test_destage_reproduces_staging_off_state(self):
        """workers=1 destage replays each inode's records in stage
        order, so the final bytes match a staging-off run exactly."""
        res_on, state_on, fs_on = self._final_state(True)
        res_off, state_off, _ = self._final_state(False)
        assert state_on == state_off
        st = fs_on.staging.stats()
        assert st["absorbed"] + st["absorbed_creates"] > 0
        assert st["pending_records"] == 0    # pool drained everything
        assert res_on.destage_records == st["destaged"]

    def test_staging_reduces_foreground_time(self):
        res_on, _, _ = self._final_state(True)
        res_off, _, _ = self._final_state(False)
        assert res_on.foreground_ns < res_off.foreground_ns
