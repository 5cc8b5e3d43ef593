"""64-byte log entries.

Every entry is exactly 64 bytes — one cache line — so committing an entry
costs at most one ``clwb`` + ``sfence``, the same property the paper
engineers into FACT entries (§IV-C).

Entry kinds:

* :class:`WriteEntry` — a CoW file write: ``[file_pgoff, num_pages]``
  pointing at one contiguous run of data pages (Fig. 1), plus DeNova's
  ``dedupe-flag`` byte (Fig. 5) and the resulting file size.
* :class:`DentryEntry` — a directory add/remove record; the latest entry
  for a name wins, so namespace updates are single log appends.
* :class:`SetattrEntry` — size changes (truncate); replay trims the index.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

__all__ = [
    "ENTRY_SIZE",
    "ETYPE_WRITE",
    "ETYPE_DENTRY",
    "ETYPE_SETATTR",
    "DEDUPE_NEEDED",
    "DEDUPE_IN_PROCESS",
    "DEDUPE_COMPLETE",
    "DEDUPE_FLAG_OFFSET",
    "WriteEntry",
    "DentryEntry",
    "SetattrEntry",
    "SymlinkEntry",
    "ETYPE_SYMLINK",
    "decode_entry",
    "MAX_NAME",
]

ENTRY_SIZE = 64

ETYPE_NONE = 0
ETYPE_WRITE = 1
ETYPE_DENTRY = 2
ETYPE_SETATTR = 3
ETYPE_SYMLINK = 4

# dedupe-flag state machine (paper Fig. 5).
DEDUPE_NEEDED = 0
DEDUPE_IN_PROCESS = 1
DEDUPE_COMPLETE = 2

#: Byte offset of the dedupe-flag within a write entry — updated in place
#: with a single (crash-atomic) byte store.
DEDUPE_FLAG_OFFSET = 1

_WRITE_FMT = "<BBHIQQQQQ16x"   # etype, dedupe_flag, flags, num_pages,
#                                file_pgoff, block, size_after, mtime, ino
assert struct.calcsize(_WRITE_FMT) == ENTRY_SIZE

_DENTRY_FMT = "<BBBxIQQ40s"    # etype, valid, name_len, _, reserved,
#                                ino, mtime, name
assert struct.calcsize(_DENTRY_FMT) == ENTRY_SIZE

_SETATTR_FMT = "<B7xQQQ32x"    # etype, ino, new_size, mtime
assert struct.calcsize(_SETATTR_FMT) == ENTRY_SIZE

MAX_NAME = 40


@dataclass
class WriteEntry:
    """A committed CoW write: ``num_pages`` data pages at page ``block``."""

    file_pgoff: int
    num_pages: int
    block: int
    size_after: int
    ino: int
    mtime: int = 0
    dedupe_flag: int = DEDUPE_NEEDED
    flags: int = 0

    etype = ETYPE_WRITE

    def pack(self) -> bytes:
        return struct.pack(
            _WRITE_FMT, ETYPE_WRITE, self.dedupe_flag, self.flags,
            self.num_pages, self.file_pgoff, self.block, self.size_after,
            self.mtime, self.ino,
        )

    @classmethod
    def unpack(cls, raw: bytes) -> "WriteEntry":
        (etype, flag, flags, num_pages, pgoff, block, size_after,
         mtime, ino) = struct.unpack(_WRITE_FMT, raw)
        if etype != ETYPE_WRITE:
            raise ValueError(f"not a write entry (etype={etype})")
        return cls(file_pgoff=pgoff, num_pages=num_pages, block=block,
                   size_after=size_after, ino=ino, mtime=mtime,
                   dedupe_flag=flag, flags=flags)

    def pages(self) -> range:
        """Device page numbers this entry references."""
        return range(self.block, self.block + self.num_pages)

    def block_for(self, file_pgoff: int) -> int:
        """Device page holding file page ``file_pgoff``."""
        if not (self.file_pgoff <= file_pgoff < self.file_pgoff + self.num_pages):
            raise ValueError(f"pgoff {file_pgoff} outside entry "
                             f"[{self.file_pgoff}, +{self.num_pages})")
        return self.block + (file_pgoff - self.file_pgoff)


@dataclass
class DentryEntry:
    """A directory-log record; ``valid=0`` records a removal."""

    name: str
    ino: int
    valid: int = 1
    mtime: int = 0

    etype = ETYPE_DENTRY

    def pack(self) -> bytes:
        raw = self.name.encode()
        if not 0 < len(raw) <= MAX_NAME:
            raise ValueError(f"name must be 1..{MAX_NAME} bytes: {self.name!r}")
        return struct.pack(_DENTRY_FMT, ETYPE_DENTRY, self.valid, len(raw),
                           0, self.ino, self.mtime, raw)

    @classmethod
    def unpack(cls, raw: bytes) -> "DentryEntry":
        etype, valid, name_len, _res, ino, mtime, name = struct.unpack(
            _DENTRY_FMT, raw)
        if etype != ETYPE_DENTRY:
            raise ValueError(f"not a dentry entry (etype={etype})")
        return cls(name=name[:name_len].decode(), ino=ino, valid=valid,
                   mtime=mtime)


@dataclass
class SetattrEntry:
    """A size change (truncate up or down)."""

    ino: int
    new_size: int
    mtime: int = 0

    etype = ETYPE_SETATTR

    def pack(self) -> bytes:
        return struct.pack(_SETATTR_FMT, ETYPE_SETATTR, self.ino,
                           self.new_size, self.mtime)

    @classmethod
    def unpack(cls, raw: bytes) -> "SetattrEntry":
        etype, ino, new_size, mtime = struct.unpack(_SETATTR_FMT, raw)
        if etype != ETYPE_SETATTR:
            raise ValueError(f"not a setattr entry (etype={etype})")
        return cls(ino=ino, new_size=new_size, mtime=mtime)


_SYMLINK_FMT = "<BBxxIQQ40s"   # etype, target_len, _, reserved, ino,
#                                mtime, target
assert struct.calcsize(_SYMLINK_FMT) == ENTRY_SIZE


@dataclass
class SymlinkEntry:
    """The symlink's target path, stored in its own inode log.

    Targets are limited to 40 bytes (one cache-line entry) — the short
    relative/absolute paths symlinks overwhelmingly are; the limit is
    enforced at creation and documented on :meth:`NovaFS.symlink`.
    """

    target: str
    ino: int
    mtime: int = 0

    etype = ETYPE_SYMLINK

    def pack(self) -> bytes:
        raw = self.target.encode()
        if not 0 < len(raw) <= MAX_NAME:
            raise ValueError(
                f"symlink target must be 1..{MAX_NAME} bytes: "
                f"{self.target!r}")
        return struct.pack(_SYMLINK_FMT, ETYPE_SYMLINK, len(raw), 0,
                           self.ino, self.mtime, raw)

    @classmethod
    def unpack(cls, raw: bytes) -> "SymlinkEntry":
        etype, tlen, _res, ino, mtime, target = struct.unpack(
            _SYMLINK_FMT, raw)
        if etype != ETYPE_SYMLINK:
            raise ValueError(f"not a symlink entry (etype={etype})")
        return cls(target=target[:tlen].decode(), ino=ino, mtime=mtime)


def decode_entry(raw: bytes):
    """Decode any 64-byte log entry; returns ``None`` for empty slots."""
    if len(raw) != ENTRY_SIZE:
        raise ValueError(f"entry must be {ENTRY_SIZE} bytes, got {len(raw)}")
    etype = raw[0]
    if etype == ETYPE_NONE:
        return None
    if etype == ETYPE_WRITE:
        return WriteEntry.unpack(raw)
    if etype == ETYPE_DENTRY:
        return DentryEntry.unpack(raw)
    if etype == ETYPE_SETATTR:
        return SetattrEntry.unpack(raw)
    if etype == ETYPE_SYMLINK:
        return SymlinkEntry.unpack(raw)
    raise ValueError(f"unknown entry type {etype}")
