"""A tiny redo journal for multi-directory namespace operations.

NOVA uses lightweight per-CPU journals for operations that must update
two inodes atomically (rename is the canonical case: a dentry appears in
one directory log and disappears from another).  Single-log operations
don't need it — the atomic tail update suffices — so this journal only
ever holds a handful of dentry records.

Protocol (redo logging):

1. write the records into the journal area and persist them;
2. set the committed flag with an atomic 64-bit store + persist —
   **the linearization point of the whole operation**;
3. apply the records to the directory logs (normal appends);
4. clear the flag.

Crash before 2: the records are garbage, recovery ignores them.
Crash between 2 and 4: recovery *redoes* every record — application is
idempotent because a redo checks the replayed directory state first.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property

from repro.nova.entries import MAX_NAME
from repro.nova.errors import CorruptImage
from repro.nova.layout import PAGE_SIZE, Geometry
from repro.pm.device import PMDevice

__all__ = ["Journal", "JournalRecord", "J_ADD", "J_REMOVE"]

J_ADD = 1
J_REMOVE = 2

_REC_FMT = "<BBxxIQQ40s"  # op, name_len, _, reserved, parent_ino, ino, name
_REC_SIZE = struct.calcsize(_REC_FMT)
assert _REC_SIZE == 64

_OFF_STATE = 0     # 0 = empty, 1 = committed
_OFF_COUNT = 8
_HEADER = 64
MAX_RECORDS = (PAGE_SIZE - _HEADER) // _REC_SIZE


@dataclass(frozen=True)
class JournalRecord:
    """One journaled namespace mutation."""

    op: int              # J_ADD or J_REMOVE
    parent_ino: int
    name: str
    ino: int             # target inode (0 for removes)

    def pack(self) -> bytes:
        raw = self.name.encode()
        if not 0 < len(raw) <= MAX_NAME:
            raise ValueError(f"bad journal name {self.name!r}")
        return struct.pack(_REC_FMT, self.op, len(raw), 0,
                           self.parent_ino, self.ino, raw)

    @classmethod
    def unpack(cls, raw: bytes) -> "JournalRecord":
        op, name_len, _res, parent, ino, name = struct.unpack(_REC_FMT, raw)
        return cls(op=op, parent_ino=parent, name=name[:name_len].decode(),
                   ino=ino)


class Journal:
    """The single-page redo journal at ``geo.journal_page``."""

    def __init__(self, dev: PMDevice, geo: Geometry):
        self.dev = dev
        self.base = geo.journal_page * PAGE_SIZE

    @cached_property
    def _header(self) -> tuple[int, int]:
        """The state and count words: read in one request on first use
        (a mount's), then kept by :meth:`stage` and :meth:`clear`."""
        return struct.unpack("<QQ", self.dev.read(self.base, 16))

    @property
    def committed(self) -> bool:
        return self._header[0] == 1

    def stage(self, records: list[JournalRecord]) -> None:
        """Steps 1-2: persist the records, then the commit flag."""
        if not records:
            raise ValueError("empty journal transaction")
        if len(records) > MAX_RECORDS:
            raise ValueError(f"journal overflow ({len(records)} records)")
        if self.committed:
            raise RuntimeError("journal already holds a committed txn")
        blob = b"".join(r.pack() for r in records)
        self.dev.write(self.base + _HEADER, blob)
        self.dev.write_atomic64(self.base + _OFF_COUNT, len(records))
        self.dev.persist(self.base + _OFF_COUNT,
                         _HEADER - _OFF_COUNT + len(blob))
        self.dev.write_atomic64(self.base + _OFF_STATE, 1,
                                persist=True)  # commit point
        self._header = (1, len(records))

    def records(self) -> list[JournalRecord]:
        """The committed records (empty when the journal is clear)."""
        state, count = self._header
        if state != 1:
            return []
        if count > MAX_RECORDS:
            # Torn commit-word cannot happen (atomic store); a bad count
            # means media corruption — fail loudly rather than misapply.
            raise CorruptImage(f"journal count {count} exceeds capacity")
        raw = self.dev.read(self.base + _HEADER, count * _REC_SIZE)
        return [JournalRecord.unpack(raw[i * _REC_SIZE:(i + 1) * _REC_SIZE])
                for i in range(count)]

    def clear(self) -> None:
        """Step 4: retire the transaction."""
        self.dev.write_atomic64(self.base + _OFF_STATE, 0, persist=True)
        self._header = (0, 0)
