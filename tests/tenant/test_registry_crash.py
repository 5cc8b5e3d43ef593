"""Crash sweep over every tenant-table persistence event.

The tenant registry persists with the A/B-slot header-last discipline
(payload persist, then header persist).  ``sweep_crash_points`` crashes
at *every* ``dev.persist`` the scenario issues — both registry slots'
payload and header persists plus the surrounding namespace log
appends — and remounts, so these tests cover every tenant-table
persistence event the ISSUE acceptance requires.
"""

import pytest

from repro.failure import check_fs_invariants, sweep_crash_points
from repro.nova import NovaFS, PAGE_SIZE
from repro.pm import DRAM, PMDevice, SimClock
from repro.tenant.registry import TenantRegistry

pytestmark = pytest.mark.tenant


def fresh_fs(pages=512):
    dev = PMDevice(pages * PAGE_SIZE, model=DRAM, clock=SimClock())
    return NovaFS.mkfs(dev, max_inodes=64)


class TestRegistryUnit:
    def test_save_load_roundtrip(self):
        fs = fresh_fs()
        reg = fs.tenants.registry
        reg.create("alice", quota_pages=10, quota_inodes=4, weight=3)
        reg.create("bob")
        reg2 = TenantRegistry(fs.dev, fs.geo.tenant_page,
                              fs.geo.tenant_pages)
        reg2.load()
        assert [t.name for t in reg2] == ["alice", "bob"]
        a = reg2.get("alice")
        assert (a.quota_pages, a.quota_inodes, a.weight) == (10, 4, 3)
        assert reg2.seq == reg.seq

    def test_torn_slot_falls_back_to_previous(self):
        """Corrupting the newest slot's payload must not lose the table
        state committed by the previous save."""
        fs = fresh_fs()
        reg = fs.tenants.registry
        reg.create("alice")              # seq 1 -> slot 1
        reg.create("bob")                # seq 2 -> slot 0
        newest = reg.base + (reg.seq % 2) * reg.slot_bytes
        fs.dev.write(newest + 32, b"\xff" * 8)  # tear the payload
        reg2 = TenantRegistry(fs.dev, fs.geo.tenant_page,
                              fs.geo.tenant_pages)
        reg2.load()
        assert [t.name for t in reg2] == ["alice"]
        assert reg2.seq == 1

    def test_name_validation(self):
        fs = fresh_fs()
        reg = fs.tenants.registry
        for bad in ("", "a/b", ".", "..", "x" * 48):
            with pytest.raises(ValueError):
                reg.create(bad)
        with pytest.raises(ValueError):
            reg.create("ok", weight=0)
        reg.create("ok")
        with pytest.raises(ValueError):
            reg.create("ok")

    #: What the record's ``u32 weight | u64 quota | u64 quota`` cannot hold.
    OUT_OF_RANGE = [{"quota_pages": -1}, {"quota_inodes": -1},
                    {"quota_pages": 1 << 64}, {"quota_inodes": 1 << 64},
                    {"weight": 0}, {"weight": -1}, {"weight": 1 << 32}]

    @pytest.mark.parametrize("limits", OUT_OF_RANGE)
    def test_limits_are_range_checked_before_anything_changes(self, limits):
        """These used to reach ``struct.pack`` in ``save``: a
        ``struct.error``, and ``set_quota`` had by then changed the
        in-memory record."""
        fs = fresh_fs()
        reg = fs.tenants.registry
        reg.create("alice", quota_pages=10, quota_inodes=4, weight=3)
        seq, media = reg.seq, fs.dev.read_silent(0, fs.dev.size)
        with pytest.raises(ValueError, match="tenant"):
            reg.set_quota("alice", **limits)
        with pytest.raises(ValueError, match="tenant"):
            reg.create("bob", **limits)
        a = reg.get("alice")
        assert (a.quota_pages, a.quota_inodes, a.weight) == (10, 4, 3)
        assert reg.get("bob") is None and reg.seq == seq
        assert fs.dev.read_silent(0, fs.dev.size) == media
        # The largest values that do fit still round-trip.
        reg.set_quota("alice", quota_pages=(1 << 64) - 1,
                      weight=(1 << 32) - 1)
        reg.load()
        assert reg.get("alice").quota_pages == (1 << 64) - 1


class TestCreateCrash:
    def test_tenant_create_atomic(self):
        """Crash anywhere inside tenant_create: after remount the tenant
        is either fully present or absent, and a retry always lands it."""

        def build():
            fs = fresh_fs()

            def scenario():
                fs.tenant_create("alice", quota_pages=8, quota_inodes=4,
                                 weight=2)

            return fs.dev, scenario

        def check(dev, point, phase):
            fs2 = NovaFS.mount(dev)
            check_fs_invariants(fs2)
            info = fs2.tenants.registry.get("alice")
            if info is not None:
                # Registry committed: the record is complete and the
                # root dir exists and is owned.
                assert (info.quota_pages, info.quota_inodes,
                        info.weight) == (8, 4, 2)
                assert fs2.exists("/t/alice")
                root = fs2.lookup("/t/alice")
                assert fs2.tenants.tenant_of(root) == info.tid
            else:
                # Crash before the registry commit: at most an unowned
                # /t/alice dir survives, which the retry adopts.
                info = fs2.tenant_create("alice", quota_pages=8,
                                         quota_inodes=4, weight=2)
                assert fs2.tenants.tenant_of(
                    fs2.lookup("/t/alice")) == info.tid

        assert sweep_crash_points(build, check) > 0

    def test_second_tenant_never_clobbers_first(self):
        """A/B alternation: a crash while committing tenant #2 leaves
        tenant #1's record readable from the other slot."""

        def build():
            fs = fresh_fs()
            fs.tenant_create("alice", quota_pages=8)

            def scenario():
                fs.tenant_create("bob", quota_pages=16)

            return fs.dev, scenario

        def check(dev, point, phase):
            fs2 = NovaFS.mount(dev)
            check_fs_invariants(fs2)
            a = fs2.tenants.registry.get("alice")
            assert a is not None and a.quota_pages == 8
            b = fs2.tenants.registry.get("bob")
            if b is not None:
                assert b.quota_pages == 16
                assert b.tid != a.tid

        assert sweep_crash_points(build, check) > 0


class TestQuotaCrash:
    def test_set_quota_old_or_new(self):
        """Crash inside set_quota: the recovered quota is all-old or
        all-new, never a torn mixture."""

        def build():
            fs = fresh_fs()
            fs.tenant_create("alice", quota_pages=8, quota_inodes=4)

            def scenario():
                fs.tenant_set_quota("alice", quota_pages=100,
                                    quota_inodes=50)

            return fs.dev, scenario

        def check(dev, point, phase):
            fs2 = NovaFS.mount(dev)
            check_fs_invariants(fs2)
            info = fs2.tenants.registry.get("alice")
            assert info is not None
            assert (info.quota_pages, info.quota_inodes) in (
                (8, 4), (100, 50)), "torn quota update visible"

        assert sweep_crash_points(build, check) > 0


class TestUsageRebuild:
    def test_usage_rebuilt_from_namespace_after_crash(self):
        """Usage accounting is DRAM-only: whatever the logs replay to is
        the usage, so a crash can never leak or lose a charge."""
        fs = fresh_fs()
        fs.tenant_create("alice", quota_pages=100)
        ino = fs.create("/t/alice/f")
        fs.write(ino, 0, b"x" * (2 * PAGE_SIZE))
        fs.dev.crash()
        fs.dev.recover_view()
        fs2 = NovaFS.mount(fs.dev)
        st = fs2.tenant_stats()["alice"]
        assert st["used_pages"] == 2
        assert st["used_inodes"] == 2   # root dir + the file
