"""Clean-unmount checkpoint: fast remount, torn/stale fallback."""

import struct

import pytest

from repro.conc import fs_state_digest
from repro.failure import check_fs_invariants
from repro.nova import NovaFS, PAGE_SIZE
from repro.nova.checkpoint import _PAYLOAD_OFF, load_checkpoint
from repro.nova.fs import FSError
from repro.nova.persist import HDR_BYTES
from repro.nova.layout import Superblock
from repro.pm import DRAM, PMDevice, SimClock

pytestmark = pytest.mark.recovery


def build_fs(pages=1024, inodes=64, cpus=1):
    dev = PMDevice(pages * PAGE_SIZE, model=DRAM, clock=SimClock())
    fs = NovaFS.mkfs(dev, max_inodes=inodes, cpus=cpus)
    fs.mkdir("/d")
    fs.mkdir("/d/e")
    for i in range(8):
        ino = fs.create(f"/d/f{i}")
        fs.write(ino, 0, bytes([65 + i]) * (PAGE_SIZE + 100))
    fs.symlink("/d/f0", "/link")
    fs.unlink("/d/f7")
    return fs


def remount(fs, tmp_path, name, **kw):
    """Unplug-free remount: round-trip through a durable image copy."""
    path = tmp_path / f"{name}.img"
    fs.dev.save_image(path)
    dev = PMDevice.load_image(path, clock=SimClock())
    return NovaFS.mount(dev, **kw)


class TestCheckpointFastPath:
    def test_clean_remount_restores_from_checkpoint(self, tmp_path):
        fs = build_fs()
        digest0 = fs_state_digest(fs)
        fs.unmount()
        fs2 = remount(fs, tmp_path, "ck")
        rep = fs2.last_recovery
        assert rep.clean
        assert "checkpoint" in rep.extra
        assert rep.entries_replayed == 0  # not one log page read
        assert fs_state_digest(fs2) == digest0
        check_fs_invariants(fs2)

    def test_checkpoint_matches_full_scan_accounting(self, tmp_path):
        fs = build_fs(cpus=2)
        fs.unmount()
        ck = remount(fs, tmp_path, "a", cpus=2)
        full = remount(fs, tmp_path, "b", cpus=2, use_checkpoint=False)
        assert "checkpoint" not in full.last_recovery.extra
        assert (ck.last_recovery.pages_in_use
                == full.last_recovery.pages_in_use)
        assert ck.allocator.free_pages == full.allocator.free_pages
        assert fs_state_digest(ck) == fs_state_digest(full)

    def test_hydration_is_lazy_and_on_demand(self, tmp_path):
        fs = build_fs()
        ino = fs.lookup("/d/f3")
        fs.unmount()
        fs2 = remount(fs, tmp_path, "lazy")
        stubs = [c for _, c in fs2.caches.raw_items() if not c.hydrated]
        assert stubs, "checkpoint mount should start from stub caches"
        assert not fs2.caches.raw_get(ino).hydrated
        assert fs2.read(ino, 0, PAGE_SIZE) == b"D" * PAGE_SIZE
        assert fs2.caches.raw_get(ino).hydrated
        assert fs2._hydrations >= 1

    def test_directory_rename_hydrates_only_the_moved_subtree(self,
                                                             tmp_path):
        """The own-subtree check of a directory rename searches down
        from the moved directory: the files' stubs stay unread."""
        dev = PMDevice(1024 * PAGE_SIZE, model=DRAM, clock=SimClock())
        fs = NovaFS.mkfs(dev, max_inodes=128)
        fs.mkdir("/d")
        fs.mkdir("/d/sub")
        fs.mkdir("/e")
        files = [fs.create(f"/d/f{i}") for i in range(40)]
        files += [fs.create(f"/d/sub/g{i}") for i in range(40)]
        fs.unmount()
        fs2 = remount(fs, tmp_path, "rename")
        assert not any(c.hydrated for _, c in fs2.caches.raw_items())
        fs2.rename("/d", "/e/d")
        assert not any(fs2.caches.raw_get(i).hydrated for i in files)
        hydrated = sum(c.hydrated for _, c in fs2.caches.raw_items())
        assert hydrated <= 4            # /, /d, /d/sub, /e
        with pytest.raises(FSError, match="own subtree"):
            fs2.rename("/e", "/e/d/sub/e")

    def test_checkpoint_region_reserved_and_reported(self):
        fs = build_fs()
        assert fs.geo.ckpt_pages > 0
        assert fs.geo.ckpt_page > 0

    def test_tiny_device_has_no_checkpoint_region(self, tmp_path):
        dev = PMDevice(16 * PAGE_SIZE, model=DRAM, clock=SimClock())
        fs = NovaFS.mkfs(dev, max_inodes=64)
        assert fs.geo.ckpt_pages == 0
        ino = fs.create("/f")
        fs.write(ino, 0, b"x" * 10)
        fs.unmount()
        fs2 = remount(fs, tmp_path, "tiny")
        assert "checkpoint" not in fs2.last_recovery.extra
        assert fs2.read(fs2.lookup("/f"), 0, 10) == b"x" * 10


class TestCheckpointFallback:
    def _corrupt(self, fs, offset):
        addr = fs.geo.ckpt_page * PAGE_SIZE + offset
        byte = fs.dev.read_silent(addr, 1)
        fs.dev.write(addr, bytes([byte[0] ^ 0xFF]))
        fs.dev.persist(addr, 1)

    def test_torn_header_falls_back_to_full_scan(self, tmp_path):
        fs = build_fs()
        digest0 = fs_state_digest(fs)
        fs.unmount()
        self._corrupt(fs, HDR_BYTES - 1)  # last CRC byte
        fs2 = remount(fs, tmp_path, "hdr")
        rep = fs2.last_recovery
        assert rep.clean
        assert "checkpoint" not in rep.extra
        assert rep.entries_replayed > 0
        assert fs_state_digest(fs2) == digest0
        check_fs_invariants(fs2)

    def test_torn_payload_falls_back_to_full_scan(self, tmp_path):
        fs = build_fs()
        digest0 = fs_state_digest(fs)
        fs.unmount()
        self._corrupt(fs, _PAYLOAD_OFF + 10)
        fs2 = remount(fs, tmp_path, "payload")
        assert "checkpoint" not in fs2.last_recovery.extra
        assert fs_state_digest(fs2) == digest0

    def test_stale_generation_is_ignored(self, tmp_path):
        fs = build_fs()
        digest0 = fs_state_digest(fs)
        fs.unmount()
        # A later mount bumped the epoch; the old checkpoint must not
        # be replayed against newer on-device state.
        Superblock.load(fs.dev).bump_epoch()
        fs2 = remount(fs, tmp_path, "stale")
        assert "checkpoint" not in fs2.last_recovery.extra
        assert fs_state_digest(fs2) == digest0

    def test_checkpoint_never_replayed_twice(self, tmp_path):
        fs = build_fs()
        fs.unmount()
        fs2 = remount(fs, tmp_path, "once")
        assert "checkpoint" in fs2.last_recovery.extra
        ino = fs2.create("/after")
        fs2.write(ino, 0, b"post-checkpoint")
        fs2.dev.crash()
        fs2.dev.recover_view()
        fs3 = NovaFS.mount(fs2.dev)
        rep = fs3.last_recovery
        assert not rep.clean
        assert "checkpoint" not in rep.extra
        assert fs3.read(fs3.lookup("/after"), 0, 15) == b"post-checkpoint"
        check_fs_invariants(fs3)

    def test_use_checkpoint_false_forces_scan(self, tmp_path):
        fs = build_fs()
        fs.unmount()
        fs2 = remount(fs, tmp_path, "forced", use_checkpoint=False)
        assert "checkpoint" not in fs2.last_recovery.extra
        assert fs2.last_recovery.entries_replayed > 0

    def test_load_checkpoint_rejects_bad_magic(self, tmp_path):
        fs = build_fs()
        fs.unmount()
        addr = fs.geo.ckpt_page * PAGE_SIZE
        fs.dev.write(addr, struct.pack("<Q", 0xBAD))
        fs.dev.persist(addr, 8)
        path = tmp_path / "magic.img"
        fs.dev.save_image(path)
        dev = PMDevice.load_image(path, clock=SimClock())
        probe = NovaFS(Superblock.load(dev), 1)
        assert load_checkpoint(probe) is None
