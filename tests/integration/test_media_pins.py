"""Byte-identity pins on what the persistence protocols put on the media.

The tenant table, the clean-unmount checkpoint, the staging log and the
in-image state files are on-media formats: an image written by one
commit must mount on the next.  The digests below were recorded on
commit 60893e8, before those protocols moved onto the shared
``repro.nova.persist`` primitives; any change to a layout, a magic
number, a CRC's coverage or a JSON encoding moves them.  The checkpoint
also holds each inode's mtime, a logical stamp (``NovaFS.stamp``) that
no charge moves, so its digest moves only with a store.  (Whole-image
pins live in ``tests/fuzz/test_image_pin.py``.)
"""

import hashlib
import io
import json

from repro.backup import receive_backup
from repro.core import Config, Variant, make_fs
from repro.failure.image import decode
from repro.nova import NovaFS, PAGE_SIZE
from repro.nova.inode import ITYPE_DIR
from repro.pm import DRAM, PMDevice, SimClock

from tests.repl.util import make_fs as denova, page_of, send_stream

PINNED = {
    "tenant_slots":
        "78a453986b2d24544541622162c1a64bc66d82a5e0c449ebda63a7be46466e1b",
    # The data region starts a page later since the FACT chunk map took
    # one (the free extents the checkpoint records moved with it).
    "checkpoint_region":
        "46b62597df6e0e8b2f8b43ca3c3cfe1cd9a819102fd58aa64be1344fef161a4d",
    "staging_slab":
        "2e72ad5b72f82b6b85ad8db1edb2ba733346199964981a5aceb0ea75cdebf000",
    "state_files_mid_recv":
        "b412b431b8f93fd8d3dd88b2d47f228d4e93180f7a6a03ed8b7c0a87228020f1",
}


def sha(raw) -> str:
    return hashlib.sha256(bytes(raw)).hexdigest()


def test_tenant_slots():
    dev = PMDevice(512 * PAGE_SIZE, model=DRAM, clock=SimClock())
    reg = NovaFS.mkfs(dev, max_inodes=64).tenants.registry
    reg.create("a")
    reg.create("b")
    reg.set_quota("a", quota_pages=7, quota_inodes=3, weight=2)
    assert sha(dev.read_silent(reg.base, 2 * reg.slot_bytes)) \
        == PINNED["tenant_slots"]


def test_checkpoint_region():
    fs = denova(1024, 64)
    fs.mkdir("/d")
    for i in range(5):
        ino = fs.create(f"/d/f{i}")
        fs.write(ino, 0, page_of(1 + i % 3) + page_of(40 + i))
    fs.symlink("/d/f0", "/ln")
    fs.unlink("/d/f1")
    fs.daemon.drain()
    fs.unmount()
    geo = fs.geo
    assert sha(fs.dev.read_silent(geo.ckpt_page * PAGE_SIZE,
                                  geo.ckpt_pages * PAGE_SIZE)) \
        == PINNED["checkpoint_region"]
    assert decode(fs.dev).region_digest("checkpoint") \
        == PINNED["checkpoint_region"]


def test_staging_slab_with_watermark_and_tombstone():
    fs, _ = make_fs(Variant.DELAYED, Config(
        device_pages=2048, max_inodes=128, staging_pages=16))
    a = fs.create("/a")                 # direct: staging not enabled yet
    fs.enable_staging()
    b = fs.create("/b")                 # staged create, seq 1
    fs.write(a, 0, b"pending-a")        # staged write,  seq 2
    fs.write(b, 0, b"drained-b")        # staged write,  seq 3
    fs.staging.drain_ino(b)             # seq 1 -> watermark, seq 3 -> tomb
    assert fs.staging.nslabs == 1
    slab = fs.staging._slabs[0]
    raw = fs.dev.read_silent(slab.base, slab.end - slab.base)
    assert int.from_bytes(raw[8:16], "little") == 1
    assert [r.tombed for r in slab.recs] == [False, True]
    assert sha(raw) == PINNED["staging_slab"]


def _tree_files(fs, root):
    out = []
    for name in fs.listdir(root):
        path = f"{root}/{name}"
        ino = fs.lookup(path, follow=False)
        if fs.caches[ino].inode.itype == ITYPE_DIR:
            out += _tree_files(fs, path)
        else:
            out.append((path, fs.read(ino, 0, fs.stat(ino).size).hex()))
    return out


def test_state_files_mid_recv():
    src = denova()
    data = src.create("/data")
    src.mkdir("/d")
    g = src.create("/d/g")
    src.symlink("/data", "/ln")
    streams, prev = [], None
    for i in (1, 2):
        src.write(data, src.stat(data).size, b"".join(
            page_of(1 + (i - 1) * 4 + j) for j in range(4)))
        src.write(g, 0, page_of(200 + i))
        src.daemon.drain()
        src.snapshot(f"s{i}")
        streams.append(send_stream(src, f"s{i}", base=prev))
        prev = f"s{i}"
    dst = denova()
    receive_backup(dst, io.BytesIO(streams[0]))
    receive_backup(dst, io.BytesIO(streams[1]), max_entries=2)
    files = _tree_files(dst, "/.repl") + _tree_files(dst, "/.backup_stage")
    assert [p for p, _ in files] == [
        "/.repl/s1.chain", "/.backup_stage/s2@7d1cd3fc8969/d/g",
        "/.backup_stage/s2@7d1cd3fc8969.cursor"]
    assert sha(json.dumps(files).encode()) == PINNED["state_files_mid_recv"]
