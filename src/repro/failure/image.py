"""A read-only image decoder: each page's named region.

It reads a device or a crash fork only through ``read_silent`` (no
charge, no hook) and decodes with the layers' own readers."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from repro.dedup.fact import marked_chunks
from repro.nova.entries import (ETYPE_SETATTR, ETYPE_WRITE, SetattrEntry,
                                WriteEntry)
from repro.nova.errors import CorruptImage
from repro.nova.inode import ITYPE_FILE, Inode, InodeTable
from repro.nova.layout import INODE_SIZE, PAGE_SIZE, Superblock
from repro.nova.log import LogManager, chain_slots

__all__ = ["Image", "chunk_map", "decode", "iaa_mark", "inode_records", "log"]


def _view(read, size: int) -> SimpleNamespace:
    """A device to the layers' readers: ``read`` and nothing else."""
    return SimpleNamespace(read=read, read_silent=read, size=size,
                           read_u64=lambda a: int.from_bytes(read(a, 8),
                                                             "little"))


def iaa_mark(dev) -> int | None:
    """The superblock's IAA mark (:meth:`Superblock.iaa_mark`)."""
    return Superblock.decode(dev, dev.read_silent(0, PAGE_SIZE)).iaa_mark()


def chunk_map(dev) -> np.ndarray | None:
    """The FACT's DAA chunk map (:meth:`FACT.chunk_map`), one bool per
    chunk (:func:`marked_chunks`), True when marked; None on an image
    formatted without one."""
    geo = Superblock.decode(dev, dev.read_silent(0, PAGE_SIZE)).geo
    if not geo.fact_map_page:
        return None
    raw = dev.read_silent(geo.fact_map_page * PAGE_SIZE, geo.fact_map_bytes)
    return marked_chunks(np.frombuffer(raw, "<u8"), 2 ** geo.fact_prefix_bits)


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
    """A decoded image: ``pages`` names each page's region, so the
    regions cover the device without overlap."""

    raw: bytes
    pages: list = field(default_factory=list)

    def region_digest(self, *names: str) -> str:
        """The sha256 of the named regions' pages in address order (of
        the whole image, if none is named)."""
        h = hashlib.sha256()
        for page, name in enumerate(self.pages):
            if not names or name in names:
                h.update(self.raw[page * PAGE_SIZE:(page + 1) * PAGE_SIZE])
        return h.hexdigest()


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
        geo = Superblock.decode(view, raw).geo
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
