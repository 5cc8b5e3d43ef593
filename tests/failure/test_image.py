"""The read-only image decoder (``repro.failure.image``).

Its regions cover every image without overlap and agree with what a
mounted filesystem knows.  No byte of an image depends on simulated
time — an mtime is a logical stamp (``NovaFS.stamp``) — so a region's
digest moves exactly when a store to it does.
"""

import hashlib
import struct

import pytest

from repro.core import Config, Variant, make_fs
from repro.failure import image, sweep_crash_points
from repro.failure.image import decode
from repro.nova import PAGE_SIZE, NovaFS
from repro.nova.checkpoint import CKPT_MAGIC, _PAYLOAD_OFF
from repro.nova.entries import (ENTRY_SIZE, DentryEntry, SetattrEntry,
                                SymlinkEntry, WriteEntry)
from repro.nova.inode import Inode
from repro.nova.layout import Superblock
from repro.nova.log import ENTRIES_PER_PAGE
from repro.nova.persist import SlotRecord
from repro.pm import DRAM, PMDevice, SimClock
from tests.fuzz.test_image_pin import PINNED, crash_images

STAMP = 0x0123456789ABCDEF


def page_of(tag: int) -> bytes:
    return tag.to_bytes(8, "little") * (PAGE_SIZE // 8)


def populated(variant, **cfg):
    """A small image of ``variant``: a directory, shared and unique file
    pages, a symlink, a truncate and an unlink, dedup drained."""
    fs, _ = make_fs(variant, Config(device_pages=1024, max_inodes=64, **cfg))
    fs.mkdir("/d")
    for i in range(4):
        ino = fs.create(f"/d/f{i}")
        fs.write(ino, 0, page_of(1 + i % 2) + page_of(10 + i))
    fs.symlink("/d/f0", "/ln")
    fs.truncate(fs.lookup("/d/f2"), PAGE_SIZE)
    fs.unlink("/d/f3")
    if variant.has_dedup:
        fs.daemon.drain()
    return fs


def staged():
    fs, _ = make_fs(Variant.DELAYED, Config(device_pages=2048, max_inodes=64,
                                            staging_pages=16))
    fs.write(fs.create("/a"), 0, page_of(3))     # direct: not yet enabled
    fs.enable_staging()
    fs.write(fs.create("/s"), 0, b"staged")
    return fs


def tenanted():
    fs = populated(Variant.DELAYED)
    fs.tenants.tenant_create("alice")
    fs.write(fs.create("/t/alice/f"), 0, page_of(7))
    return fs


MOUNTED = {
    "nova": lambda: populated(Variant.BASELINE),
    "denova": lambda: populated(Variant.DELAYED),
    "hybrid": lambda: populated(Variant.HYBRID),
    "staging": staged,
    "tenant": tenanted,
}


def region_of(img, addr: int) -> str:
    return img.pages[addr // PAGE_SIZE]


def assert_covers(img, raw: bytes) -> None:
    """Every page is in exactly one region, and the regions' pages in
    address order hash to the full digest."""
    assert len(img.pages) * PAGE_SIZE == len(raw)
    regions: dict[str, list[int]] = {}
    for page, name in enumerate(img.pages):
        regions.setdefault(name, []).append(page)
    assert sum(map(len, regions.values())) == len(img.pages)
    ordered = sorted((page, name) for name, pages in regions.items()
                     for page in pages)
    joined = b"".join(raw[p * PAGE_SIZE:(p + 1) * PAGE_SIZE]
                      for p, _name in ordered)
    assert hashlib.sha256(joined).hexdigest() \
        == img.region_digest() == hashlib.sha256(raw).hexdigest()
    assert img.region_digest(*regions) == img.region_digest()


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_every_pinned_crash_image_is_covered(seed):
    def row(point, phase, mode, dev):
        img = decode(dev)
        assert_covers(img, dev.read_silent(0, dev.size))
        return point, phase, mode, set(img.pages)

    _result, rows = crash_images(seed, row)
    assert len(rows) == len(PINNED[seed])
    assert any("FACT IAA" in names and any(n.startswith("data:")
                                           for n in names)
               for *_key, names in rows)


@pytest.mark.parametrize("kind", sorted(MOUNTED))
def test_mounted_image_regions_agree_with_the_filesystem(kind):
    fs = MOUNTED[kind]()
    img = decode(fs.dev)
    assert_covers(img, fs.dev.read_silent(0, fs.dev.size))
    geo = fs.geo
    assert region_of(img, 0) == "superblock"
    assert region_of(img, geo.inode_table_page * PAGE_SIZE) == "inode table"
    if geo.fact_page:
        assert region_of(img, geo.fact_page * PAGE_SIZE) == "FACT"
        assert region_of(img, (geo.fact_page * PAGE_SIZE + geo.fact_bytes)
                             - 1) == "FACT IAA"
    if geo.staging_page:
        assert region_of(img, geo.staging_page * PAGE_SIZE) == "staging log"
    owners: dict[int, int] = {}
    for ino in sorted(fs.caches):
        cache = fs.caches[ino]
        for page in fs.log.iter_pages(cache.inode.log_head):
            assert region_of(img, page * PAGE_SIZE + 100) == f"log:{ino}"
        for _pgoff, _addr, block in cache.index.mappings():
            owners.setdefault(block, ino)
    assert owners
    for block, ino in owners.items():
        assert region_of(img, block * PAGE_SIZE) == f"data:{ino}"


def by_region(img) -> dict[str, str]:
    return {name: img.region_digest(name) for name in set(img.pages)}


def test_a_flipped_log_byte_moves_only_that_inode_s_log_region():
    fs = populated(Variant.DELAYED)
    ino = fs.lookup("/d/f1")
    before = decode(fs.dev)
    cache = fs.caches[ino]
    addr, raw = next(image.log(fs.dev, fs.geo).iter_slots(
        cache.inode.log_head, cache.inode.log_tail))
    assert isinstance(WriteEntry.unpack(raw), WriteEntry)
    fs.dev.write(addr + 24, bytes([raw[24] ^ 0xFF]), persist=True)  # size
    after = decode(fs.dev)
    old, new = by_region(before), by_region(after)
    assert [name for name in old if old[name] != new[name]] == [f"log:{ino}"]


def test_rewritten_stamps_move_only_the_clock_column():
    """A stamp is a store like any other: rewriting one moves the digest
    of the one region that holds it, and nothing else."""
    fs = populated(Variant.DELAYED)
    ino = fs.lookup("/d/f1")
    cache = fs.caches[ino]
    addr, raw = next(image.log(fs.dev, fs.geo).iter_slots(
        cache.inode.log_head, cache.inode.log_tail))
    before = decode(fs.dev)
    entry = WriteEntry.unpack(raw)
    entry.mtime = STAMP
    fs.dev.write(addr, entry.pack(), persist=True)
    after = decode(fs.dev)
    old, new = by_region(before), by_region(after)
    assert [name for name in old if old[name] != new[name]] == [f"log:{ino}"]

    # The checkpoint's copy of an mtime, with the CRC that covers it.
    fs, rec = checkpointed()
    seq, payload = rec.load()
    before = decode(fs.dev)
    at = 20 + 40                      # the first record's mtime
    assert struct.unpack_from("<Q", payload, at)[0] > 0
    rec.store(seq, payload[:at] + STAMP.to_bytes(8, "little")
              + payload[at + 8:])
    assert rec.load() != (seq, payload)
    old, new = by_region(before), by_region(decode(fs.dev))
    assert [name for name in old if old[name] != new[name]] == ["checkpoint"]


@pytest.mark.parametrize("record", [
    WriteEntry(file_pgoff=1, num_pages=2, block=3, size_after=4, ino=5,
               mtime=STAMP),
    DentryEntry(name="n", ino=5, mtime=STAMP),
    SetattrEntry(ino=5, new_size=4, mtime=STAMP),
    SymlinkEntry(target="t", ino=5, mtime=STAMP),
    Inode(ino=1, mtime=STAMP),
])
def test_each_record_packs_its_mtime_where_it_says(record):
    """Each record keeps its mtime as one 8-byte word that unpacks back."""
    raw = record.pack()
    assert raw.count(STAMP.to_bytes(8, "little")) == 1
    assert type(record).unpack(raw).mtime == STAMP


def checkpointed():
    fs = populated(Variant.DELAYED)
    fs.unmount()
    geo = fs.geo
    rec = SlotRecord(fs.dev, geo.ckpt_page * PAGE_SIZE,
                     geo.ckpt_pages * PAGE_SIZE, magic=CKPT_MAGIC,
                     payload_off=_PAYLOAD_OFF)
    return fs, rec


def test_the_checkpoint_s_clock_fields_are_its_crc_and_its_records_mtimes():
    """The checkpoint's records carry each inode's mtime, and a clean
    mount resumes the stamps past the largest of them."""
    fs, rec = checkpointed()
    _seq, payload = rec.load()
    count = struct.unpack_from("<I", payload, 16)[0]
    stamps = {struct.unpack_from("<Q", payload, 20 + k * 48)[0]:
              struct.unpack_from("<Q", payload, 20 + k * 48 + 40)[0]
              for k in range(count)}
    assert count > 0
    fs = type(fs).mount(fs.dev)
    assert fs.last_recovery.extra["checkpoint"]["inodes"] == count
    assert stamps == {ino: fs.stat(ino).mtime for ino in fs.caches}
    assert fs.stamp() == max(stamps.values()) + 1


def test_a_rewritten_free_extent_moves_the_checkpoint_s_store():
    fs, rec = checkpointed()
    seq, payload = rec.load()
    at = 20 + struct.unpack_from("<I", payload, 16)[0] * 48   # cpu 0's list
    assert struct.unpack_from("<I", payload, at)[0] > 0
    at += 4 + 8                                   # its first extent's count
    before = decode(fs.dev)
    rec.store(seq, payload[:at] + bytes([payload[at] ^ 1])
              + payload[at + 1:])
    after = decode(fs.dev)
    old, new = by_region(before), by_region(after)
    assert [name for name in old if old[name] != new[name]] == ["checkpoint"]


def test_a_store_to_a_free_page_of_user_data_moves_the_store_column():
    """A store where a freed log page's mtime would sit moves the digest
    of the free page's region: no field of an image is set aside."""
    fs = populated(Variant.DELAYED)
    img = decode(fs.dev)
    page = next(p for p in range(fs.geo.data_start_page, fs.geo.total_pages)
                if img.pages[p] == "unowned")
    fs.dev.write(page * PAGE_SIZE, page_of(1), persist=True)
    before = decode(fs.dev)
    fs.dev.write(page * PAGE_SIZE + ENTRY_SIZE + 32,   # a write's mtime
                 bytes([2]), persist=True)
    after = decode(fs.dev)
    assert after.region_digest("unowned") != before.region_digest("unowned")


def test_a_log_page_is_zeroed_before_it_is_linked():
    """Crash a cross-directory rename that links the target's next log
    page (reused, so its first word is stale) at every persist event:
    every chain on every crashed image ends on a null ``next`` inside the
    data region — a link made before the header is durable grafts the
    stale word (found by swapping the two persists in
    ``LogManager.next_page``, which the image pins' seeds never reach)."""
    def build():
        dev = PMDevice(256 * PAGE_SIZE, model=DRAM, clock=SimClock())
        fs = NovaFS.mkfs(dev, max_inodes=160)
        junk = fs.create("/junk")
        fs.write(junk, 0, b"\xab" * (16 * PAGE_SIZE))
        fs.unlink("/junk")
        fs.mkdir("/a")
        fs.mkdir("/b")
        fs.create("/a/f")
        for i in range(ENTRIES_PER_PAGE):
            fs.create(f"/b/g{i}")
        return dev, lambda: fs.rename("/a/f", "/b/f")

    def check(dev, _point, _phase):
        geo = Superblock.load(dev).geo
        for _ino, rec in image.inode_records(dev, geo):
            for page in image.log(dev, geo).iter_pages(rec.log_head):
                assert geo.data_start_page <= page < geo.total_pages

    assert sweep_crash_points(build, check, mode=("discard", "torn")) > 0
