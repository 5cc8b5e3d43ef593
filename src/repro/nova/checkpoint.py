"""Clean-unmount checkpoint: NOVA's normal-shutdown snapshot.

On a clean unmount NOVA persists the per-CPU free lists and recovers
them on the next mount without scanning the device (§II-A "Atomicity
and enforcing write ordering").  This module extends that idea to
everything the full-scan recovery would otherwise rebuild:

* every valid inode's recovered metadata (type/flags/links/size/log
  head+tail/mtime) so mount can build stub inode caches without
  touching a single log page (logs hydrate lazily on first access);
* the allocator's per-CPU free extents;
* the FACT's occupied indirect-area slots (so the volatile IAA free
  list restores without a FACT scan) and the saved-DWQ length for
  cross-validation against the superblock.

Failure atomicity (:class:`repro.nova.persist.SlotRecord`): the payload
is persisted first, then a 32-byte header carrying ``(magic,
generation, payload_len, crc)``.  The generation is the mount epoch at
write time — every mount bumps the epoch, so a checkpoint can never be
replayed twice; the CRC covers the payload *and* the header fields, so
any torn write (header or payload) fails validation and the mount falls
back to the full scan.  The checkpoint is advisory: losing it costs
time, never correctness.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.nova.layout import PAGE_SIZE
from repro.nova.persist import SlotRecord
from repro.pm.allocator import Extent

__all__ = ["Checkpoint", "write_checkpoint", "load_checkpoint",
           "CKPT_MAGIC"]

CKPT_MAGIC = 0x544B_4843_414F_4E44  # "DNOACHKT"
CKPT_VERSION = 1

_PAYLOAD_OFF = 64           # payload starts one cache line after header

_FIXED_FMT = "<IIQ"         # version, cpus, dwq_count
_INO_FMT = "<QQQQQQ"        # ino, meta, size, log_head, log_tail, mtime
_EXT_FMT = "<QQ"            # start, count
_U32 = "<I"


@dataclass
class Checkpoint:
    """Decoded checkpoint contents (DRAM only)."""

    generation: int
    cpus: int
    dwq_count: int
    inodes: list[tuple[int, int, int, int, int, int, int, int]] = \
        field(default_factory=list)
    #: (ino, itype, flags, links, size, log_head, log_tail, mtime)
    free_lists: list[list[Extent]] = field(default_factory=list)
    iaa_occupied: list[int] | None = None  # None => no FACT section


def _pack_payload(fs) -> bytes:
    parts = [struct.pack(_FIXED_FMT, CKPT_VERSION, fs.cpus,
                         fs.sb.dwq_saved_count)]
    items = sorted(fs.caches.raw_items())
    parts.append(struct.pack(_U32, len(items)))
    for ino, cache in items:
        i = cache.inode
        meta = (i.itype & 0xFF) | ((i.flags & 0xFFFF) << 8) \
            | ((i.links & 0xFFFFFFFF) << 32)
        parts.append(struct.pack(_INO_FMT, ino, meta, i.size,
                                 i.log_head, i.log_tail, i.mtime))
    lists = fs.allocator.free_extents()
    for lst in lists:
        parts.append(struct.pack(_U32, len(lst)))
        for ext in lst:
            parts.append(struct.pack(_EXT_FMT, ext.start, ext.count))
    fact = getattr(fs, "fact", None)
    if fact is None:
        parts.append(struct.pack(_U32, 0))
    else:
        occupied = fact.iaa_occupied()
        parts.append(struct.pack(_U32, 1))
        parts.append(struct.pack(_U32, len(occupied)))
        parts.append(struct.pack(f"<{len(occupied)}I", *occupied))
    return b"".join(parts)


def _record(fs):
    """The checkpoint region as a one-slot record (None: no region)."""
    geo = fs.geo
    if not geo.ckpt_page:
        return None
    return SlotRecord(fs.dev, geo.ckpt_page * PAGE_SIZE,
                      geo.ckpt_pages * PAGE_SIZE, magic=CKPT_MAGIC,
                      payload_off=_PAYLOAD_OFF)


def write_checkpoint(fs) -> bool:
    """Persist a checkpoint for the current clean state.

    Returns False (leaving any previous checkpoint invalidated) when the
    device has no checkpoint region or the snapshot does not fit —
    callers treat that as "no fast remount", never as an error.
    """
    rec = _record(fs)
    if rec is None:
        return False
    payload = _pack_payload(fs)
    if len(payload) > rec.capacity:
        rec.invalidate()
        return False
    rec.store(fs.sb.epoch, payload)
    return True


def load_checkpoint(fs):
    """Validate and decode the device's checkpoint, or return None.

    None means "fall back to the full scan": bad magic, wrong
    generation (stale), CRC mismatch (torn), truncated payload, or a
    DWQ length that disagrees with the superblock.
    """
    rec = _record(fs)
    found = rec.load() if rec is not None else None
    if found is None or found[0] != fs.sb.epoch:
        return None
    gen, payload = found
    try:
        ck = _unpack_payload(payload, gen)
    except (struct.error, ValueError):
        return None
    if ck is None or ck.dwq_count != fs.sb.dwq_saved_count:
        return None
    return ck


def _unpack_payload(payload: bytes, gen: int):
    off = 0

    def take(fmt):
        nonlocal off
        size = struct.calcsize(fmt)
        vals = struct.unpack_from(fmt, payload, off)
        off += size
        return vals

    version, cpus, dwq_count = take(_FIXED_FMT)
    if version != CKPT_VERSION or cpus < 1:
        return None
    ck = Checkpoint(generation=gen, cpus=cpus, dwq_count=dwq_count)
    (n_inodes,) = take(_U32)
    for _ in range(n_inodes):
        ino, meta, size, log_head, log_tail, mtime = take(_INO_FMT)
        ck.inodes.append((ino, meta & 0xFF, (meta >> 8) & 0xFFFF,
                          (meta >> 32) & 0xFFFFFFFF, size, log_head,
                          log_tail, mtime))
    for _cpu in range(cpus):
        (n_ext,) = take(_U32)
        lst = []
        for _ in range(n_ext):
            start, count = take(_EXT_FMT)
            lst.append(Extent(start, count))
        ck.free_lists.append(lst)
    (has_fact,) = take(_U32)
    if has_fact:
        (n_occ,) = take(_U32)
        ck.iaa_occupied = list(take(f"<{n_occ}I"))
    if off != len(payload):
        return None
    return ck
