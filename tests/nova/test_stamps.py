"""Media mtimes are logical stamps (``NovaFS.stamp``).

Each stamping operation takes the next value of one per-filesystem
counter, and mount resumes it past every mtime it found.  So stamps go
up across a device reload, a clean remount and a crash, no charge moves
a byte of the media, and a background rewrite (dedup, relocation,
thorough GC) keeps a file's mtime: it takes no stamp.
"""

import pytest

from repro.dedup import DeNovaFS
from repro.nova import NovaFS, PAGE_SIZE
from repro.nova.entries import DentryEntry
from repro.nova.gc import thorough_gc
from repro.pm import DRAM, PMDevice, SimClock


def page_of(tag: int) -> bytes:
    return tag.to_bytes(8, "little") * (PAGE_SIZE // 8)


def make_fs(cls=DeNovaFS, pages=1024):
    dev = PMDevice(pages * PAGE_SIZE, model=DRAM, clock=SimClock())
    return cls.mkfs(dev, max_inodes=64)


def clean(fs, tmp_path):
    fs.unmount()
    return type(fs).mount(fs.dev)


def unclean(fs, tmp_path):
    fs.dev.crash()
    fs.dev.recover_view()
    return type(fs).mount(fs.dev)


def reloaded(fs, tmp_path):
    """What every CLI command does: a saved image on a fresh clock."""
    fs.unmount()
    fs.dev.save_image(tmp_path / "fs.img")
    return type(fs).mount(PMDevice.load_image(tmp_path / "fs.img",
                                              clock=SimClock()))


REMOUNTS = [clean, unclean, reloaded]


def mtimes(fs) -> dict[str, int]:
    return {f"/{name}": fs.stat(fs.lookup(f"/{name}")).mtime
            for name in fs.listdir("/")}


@pytest.mark.parametrize("remount", REMOUNTS)
def test_a_file_written_after_a_remount_is_stamped_above_every_other(
        remount, tmp_path):
    fs = make_fs()
    fs.mkdir("/d")
    for i in range(4):
        fs.write(fs.create(f"/f{i}"), 0, page_of(i) * (i + 1))
    fs.truncate(fs.lookup("/f3"), PAGE_SIZE)
    fs.daemon.drain()
    before = mtimes(fs)
    fs = remount(fs, tmp_path)
    assert mtimes(fs) == before
    fs.write(fs.create("/late"), 0, page_of(9))
    fs.write(fs.lookup("/f0"), 0, page_of(10))
    after = mtimes(fs)
    assert after["/late"] > max(before.values())
    assert after["/f0"] > after["/late"]


@pytest.mark.parametrize("remount", REMOUNTS)
def test_dedup_alone_keeps_a_file_s_mtime(remount, tmp_path):
    fs = make_fs()
    one, two = fs.create("/one"), fs.create("/two")
    fs.write(one, 0, page_of(1) + page_of(2))
    fs.write(two, 0, page_of(1) + page_of(2))
    before = mtimes(fs)
    fs.daemon.drain()
    assert [fs.caches[two].index.block_of(pg) for pg in (0, 1)] \
        == [fs.caches[one].index.block_of(pg) for pg in (0, 1)]
    assert mtimes(fs) == before
    assert mtimes(remount(fs, tmp_path)) == before


@pytest.mark.parametrize("remount", REMOUNTS)
def test_thorough_gc_keeps_the_mtimes(remount, tmp_path):
    fs = make_fs(NovaFS)
    ino = fs.create("/f")
    for i in range(200):
        fs.write(ino, (i % 2) * PAGE_SIZE, page_of(i))
    for i in range(150):
        fs.create(f"/tmp{i}")
        fs.unlink(f"/tmp{i}")
    before = mtimes(fs)
    assert thorough_gc(fs, ino)["pages_reclaimed"]
    assert thorough_gc(fs, 1)["pages_reclaimed"]      # the root directory
    assert mtimes(remount(fs, tmp_path)) == before


def test_a_rename_s_two_dentries_share_one_stamp():
    fs = make_fs(NovaFS)
    fs.create("/a")
    last = fs.stamp()
    fs.rename("/a", "/b")
    root = fs.caches[1]
    slots = list(fs.log.iter_slots(root.inode.log_head, root.inode.log_tail))
    added, removed = (DentryEntry.unpack(raw) for _addr, raw in slots[-2:])
    assert (added.name, added.valid, removed.name, removed.valid) \
        == ("b", 1, "a", 0)
    assert added.mtime == removed.mtime == last + 1 == fs.stamp() - 1


def test_no_charge_moves_a_byte_of_the_media():
    """The same operations with time spent between them leave the same
    image."""
    def image(idle_ns):
        fs = make_fs()
        ops = [lambda: fs.mkdir("/d"),
               lambda: fs.write(fs.create("/d/a"), 0, page_of(1) * 3),
               lambda: fs.write(fs.create("/b"), 0, page_of(1)),
               lambda: fs.symlink("/b", "/ln"),
               lambda: fs.rename("/b", "/d/b"),
               lambda: fs.truncate(fs.lookup("/d/a"), PAGE_SIZE),
               fs.daemon.drain,
               fs.unmount]
        for op in ops:
            fs.clock.advance(idle_ns)
            op()
        return fs.dev.read_silent(0, fs.dev.size)

    assert image(0) == image(123_456.789)


@pytest.mark.parametrize("remount", [clean, unclean])
def test_a_directory_s_mtime_is_its_last_dentry_s_stamp(remount, tmp_path):
    """Creating or removing a name stamps its directory, live and when a
    mount replays the directory's log."""
    fs = make_fs(NovaFS)
    d = fs.mkdir("/d")
    fs.create("/d/x")
    fs.unlink("/d/x")
    cache = fs.caches[d]
    *_, (_addr, raw) = fs.log.iter_slots(cache.inode.log_head,
                                         cache.inode.log_tail)
    unlinked = DentryEntry.unpack(raw)
    assert (unlinked.name, unlinked.valid) == ("x", 0)
    assert fs.stat(d).mtime == unlinked.mtime > 0
    assert remount(fs, tmp_path).stat(d).mtime == unlinked.mtime
