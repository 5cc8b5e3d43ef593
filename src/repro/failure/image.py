"""A read-only image decoder: named regions and the clock's fields.

It reads a device or a crash fork only through ``read_silent`` (no
charge, no hook) and decodes with the layers' own readers."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property
from types import SimpleNamespace

import numpy as np

from repro.nova import checkpoint as ckpt
from repro.nova.entries import (ENTRY_SIZE, ETYPE_SETATTR, ETYPE_WRITE,
                                MTIME_AT, SetattrEntry, WriteEntry)
from repro.nova.errors import CorruptImage
from repro.nova.inode import ITYPE_FILE, Inode, InodeTable
from repro.nova.layout import INODE_SIZE, PAGE_SIZE, Superblock
from repro.nova.log import LogManager, chain_slots

__all__ = ["Image", "decode", "iaa_mark", "inode_records", "log"]


def _view(read, size: int) -> SimpleNamespace:
    """A device to the layers' readers: ``read`` and nothing else."""
    return SimpleNamespace(read=read, read_silent=read, size=size,
                           read_u64=lambda a: int.from_bytes(read(a, 8),
                                                             "little"))


def iaa_mark(dev) -> int | None:
    """The superblock's IAA mark (:meth:`Superblock.iaa_mark`)."""
    return Superblock(_view(dev.read_silent, dev.size)).iaa_mark()


def inode_records(dev, geo) -> list[tuple[int, Inode]]:
    """``(ino, record)`` for every slot whose valid byte is set, read in
    the inode table's runs."""
    table = InodeTable(_view(dev.read_silent, dev.size), geo)
    return [(first + k, Inode.unpack(raw[k * INODE_SIZE:(k + 1) * INODE_SIZE]))
            for first, raw, valid in table.record_runs()
            for k in np.flatnonzero(valid).tolist()]


def log(dev, geo) -> LogManager:
    """The log layer's walkers (``iter_pages``, ``iter_slots`` ...)."""
    span = SimpleNamespace(lo=geo.data_start_page, hi=geo.total_pages)
    return LogManager(_view(dev.read_silent, dev.size), span, None)


@dataclass
class Image:
    """A decoded image: ``pages`` names each page's region (so the
    regions cover the device without overlap); ``clock`` lists every
    clock field as ``(addr, n)``, in address order."""

    raw: bytes
    pages: list = field(default_factory=list)
    clock: list = field(default_factory=list)

    def region_of(self, addr: int) -> str:
        return self.pages[addr // PAGE_SIZE]

    @cached_property
    def store(self) -> bytes:
        """The image with every clock field zeroed."""
        out = bytearray(self.raw)
        for addr, n in self.clock:
            out[addr:addr + n] = bytes(n)
        return bytes(out)

    def columns(self, *names: str) -> tuple[str, str, str]:
        """The full, store and clock sha256 of the named regions' pages
        in address order (of the whole image, if none is named)."""
        full, store, clock = (hashlib.sha256() for _ in range(3))
        for page, name in enumerate(self.pages):
            if not names or name in names:
                at = slice(page * PAGE_SIZE, (page + 1) * PAGE_SIZE)
                full.update(self.raw[at])
                store.update(self.store[at])
        for addr, n in self.clock:
            if not names or self.region_of(addr) in names:
                clock.update(self.raw[addr:addr + n])
        return full.hexdigest(), store.hexdigest(), clock.hexdigest()


def decode(dev) -> Image:
    """Name each page of the image on ``dev`` (one silent read): the
    geometry's areas (``FACT`` is the DAA, ``FACT IAA`` the rest),
    ``log:<ino>`` for the chain of each valid inode record, ``data:<ino>``
    for the pages its committed entries leave mapped (a shared page goes
    to the lowest ino), ``unowned`` for the rest."""
    img = Image(dev.read_silent(0, dev.size))
    raw, names = img.raw, img.pages
    names += ["superblock"] + ["unowned"] * (-(-len(raw) // PAGE_SIZE) - 1)
    view = _view(lambda addr, n: raw[addr:addr + n], len(raw))
    try:
        geo = Superblock(view).load_geometry()
    except CorruptImage:
        return img
    for name, page, pages in geo.areas():   # "FACT": the DAA half
        daa = -(-pages // 2) if name == "FACT" else pages
        names[page:page + pages] = [name] * daa + ["FACT IAA"] * (pages - daa)
    logs, data = {}, {}                     # page -> region
    for ino, rec in inode_records(view, geo):
        runs = list(log(view, geo).iter_chain(rec.log_head, rec.log_tail))
        for page, _run in runs:
            logs.setdefault(page, f"log:{ino}")
        if rec.ino == ino and rec.itype == ITYPE_FILE:
            for page in _mapped(chain_slots(runs, rec.log_tail), geo):
                data.setdefault(page, f"data:{ino}")
    for page, name in {**data, **logs}.items():     # a log page first
        names[page] = name
    img.clock = sorted(_clock_fields(raw, geo, names)
                       + ckpt.clock_fields(view, geo))
    return img


def _mapped(slots, geo) -> set[int]:
    """The data pages a file's committed entries leave mapped: the last
    write of each file page, cut by truncation (an entry reaching off
    the data region is no write)."""
    pages: dict[int, int] = {}
    for _addr, raw in slots:
        if raw[0] == ETYPE_WRITE:
            e = WriteEntry.unpack(raw)
            if geo.data_start_page <= e.block \
                    <= geo.total_pages - e.num_pages:
                pages.update(zip(range(e.file_pgoff, e.file_pgoff
                                       + e.num_pages), e.pages()))
        elif raw[0] == ETYPE_SETATTR:
            size = SetattrEntry.unpack(raw).new_size
            pages = {p: b for p, b in pages.items() if p * PAGE_SIZE < size}
    return set(pages.values())


def _clock_fields(raw: bytes, geo, names: list) -> list:
    """The clock's fields outside the checkpoint: the ``mtime`` of each
    inode record, and of each slot starting with an entry type on a data
    page no file maps whose first word is 0 or a data page (a log page,
    live or freed).  A page of user data that passes that test (say, its
    first word is 0) hides a store at such a slot's mtime."""
    lo, hi = geo.data_start_page, geo.total_pages
    at = geo.inode_table_page * PAGE_SIZE + Inode.MTIME_AT
    out = [(at + k * INODE_SIZE, 8) for k in range(geo.inode_capacity)]
    area = np.frombuffer(raw, np.uint8, count=(hi - lo) * PAGE_SIZE,
                         offset=lo * PAGE_SIZE)
    nxt = area.view("<u8")[::PAGE_SIZE // 8]
    hit = np.isin(area[::ENTRY_SIZE], list(MTIME_AT)).reshape(hi - lo, -1)
    hit[:, 0] = False                                   # the page headers
    hit[((nxt != 0) & ((nxt < lo) | (nxt >= hi)))
        | [name.startswith("data:") for name in names[lo:hi]]] = False
    for page, slot in zip(*np.nonzero(hit)):
        addr = (int(page) + lo) * PAGE_SIZE + int(slot) * ENTRY_SIZE
        out.append((addr + MTIME_AT[raw[addr]], 8))
    return out
