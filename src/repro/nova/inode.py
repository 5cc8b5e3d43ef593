"""Inodes and the persistent inode table.

Each inode is a 128-byte PM record.  The authoritative, crash-consistent
per-file state is the **log** (head page + tail pointer); everything else
(size, mtime) is recovered by replaying the log, exactly as NOVA does, so
the write hot path persists only the log-tail update.

``log_tail`` is an absolute device byte address of the next free entry
slot; committing an append is one atomic 64-bit store of the new tail
followed by ``clwb``/``sfence`` (§II-A "File System Consistency").
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.nova.layout import INODE_SIZE, PAGE_SIZE, Geometry
from repro.pm.device import PMDevice

__all__ = ["Inode", "InodeTable", "ROOT_INO", "ITYPE_FILE", "ITYPE_DIR",
           "ITYPE_SYMLINK", "FLAG_IMMUTABLE"]

ROOT_INO = 1

ITYPE_FILE = 1
ITYPE_DIR = 2
ITYPE_SYMLINK = 3

#: Inode flag: contents frozen (snapshot members) — writes and truncates
#: are rejected; unlink stays legal (reference counts guard the data).
FLAG_IMMUTABLE = 0x1

_INODE_FMT = "<QBBHIQQQQQ72x"  # ino, valid, itype, flags, links, size,
#                                log_head, log_tail, mtime, epoch
assert struct.calcsize(_INODE_FMT) == INODE_SIZE

# Field offsets within the record (for in-place atomic updates).
_OFF_LOG_HEAD = 24
_OFF_LOG_TAIL = 32
_OFF_SIZE = 16
_OFF_VALID = 8

# Slots per device scan of the valid column: a scan copies its whole run
# before it looks for the stop byte, so a densely valid table of any size
# costs each resumed scan at most this much.
_SCAN_RUN = 1024


@dataclass
class Inode:
    """DRAM view of one on-PM inode record."""

    ino: int
    valid: int = 0
    itype: int = ITYPE_FILE
    flags: int = 0
    links: int = 0
    size: int = 0
    log_head: int = 0   # first log page number (0 = no log yet)
    log_tail: int = 0   # abs byte addr of next free entry slot (0 = none)
    mtime: int = 0
    epoch: int = 0

    def pack(self) -> bytes:
        return struct.pack(_INODE_FMT, self.ino, self.valid, self.itype,
                           self.flags, self.links, self.size, self.log_head,
                           self.log_tail, self.mtime, self.epoch)

    @classmethod
    def unpack(cls, raw: bytes) -> "Inode":
        (ino, valid, itype, flags, links, size, log_head, log_tail,
         mtime, epoch) = struct.unpack(_INODE_FMT, raw)
        return cls(ino=ino, valid=valid, itype=itype, flags=flags,
                   links=links, size=size, log_head=log_head,
                   log_tail=log_tail, mtime=mtime, epoch=epoch)


class InodeTable:
    """Persistent array of inode records with a DRAM free-slot cache."""

    def __init__(self, dev: PMDevice, geo: Geometry):
        self.dev = dev
        self.base = geo.inode_table_page * PAGE_SIZE
        self.capacity = geo.inode_capacity
        self._free: list[int] = []
        self._free_scanned = False

    def addr_of(self, ino: int) -> int:
        if not 1 <= ino <= self.capacity:
            raise ValueError(f"ino {ino} outside table (1..{self.capacity})")
        return self.base + (ino - 1) * INODE_SIZE

    # -- whole-record I/O ----------------------------------------------------------

    def read(self, ino: int) -> Inode:
        return Inode.unpack(self.dev.read(self.addr_of(ino), INODE_SIZE))

    def write(self, ino: int, inode: Inode) -> None:
        """Persist a whole record (mkfs / create / unmount paths only)."""
        if inode.ino != ino:
            raise ValueError("record ino mismatch")
        addr = self.addr_of(ino)
        self.dev.write(addr, inode.pack(), persist=True)

    # -- allocation ------------------------------------------------------------------

    def _valid_inos(self):
        """Every ino whose valid byte reads 1, in table order: one
        charged 1-byte read per record models the mount-time table scan.

        Each device scan runs to the next such byte and the next one
        starts behind it, so a slot is read only once the caller has
        been handed every valid one before it.
        """
        ino = 1
        while ino <= self.capacity:
            flags = self.dev.scan(self.addr_of(ino) + _OFF_VALID, INODE_SIZE,
                                  min(self.capacity - ino + 1, _SCAN_RUN),
                                  stop=1)
            ino += len(flags)
            if flags[-1] == 1:
                yield ino - 1

    def _scan_free(self) -> None:
        flags = self.dev.scan(self.addr_of(2) + _OFF_VALID, INODE_SIZE,
                              self.capacity - 1)
        # Highest first: pop() hands out low inos.
        self._free = [ino for ino in range(self.capacity, 1, -1)
                      if not flags[ino - 2]]
        self._free_scanned = True

    def alloc(self) -> int:
        """Reserve a free ino (not yet valid on PM — caller persists it)."""
        if not self._free_scanned:
            self._scan_free()
        if not self._free:
            raise RuntimeError("inode table full")
        return self._free.pop()

    def claim(self, ino: int) -> None:
        """Reserve a *specific* free ino (staging-replay path).

        Replay of a staged create must re-materialize the inode number
        the staged write records reference; a fresh ``alloc()`` could
        hand out a different one.
        """
        if not self._free_scanned:
            self._scan_free()
        try:
            self._free.remove(ino)
        except ValueError:
            raise RuntimeError(f"ino {ino} is not free") from None

    def unreserve(self, ino: int) -> None:
        """Return a reserved-but-never-persisted ino to the free cache.

        Unlike :meth:`release` there is nothing to invalidate on PM —
        the slot's valid byte was never set.
        """
        if self._free_scanned:
            self._free.append(ino)

    def release(self, ino: int) -> None:
        """Mark ``ino`` invalid on PM and return it to the free cache."""
        addr = self.addr_of(ino) + _OFF_VALID
        self.dev.write(addr, b"\x00", persist=True)
        if self._free_scanned:
            self._free.append(ino)

    # -- in-place field updates (hot path) -----------------------------------------------

    def update_log_tail(self, ino: int, tail: int) -> None:
        """The commit point of every log append: atomic store + persist."""
        self.dev.write_atomic64(self.addr_of(ino) + _OFF_LOG_TAIL, tail,
                                persist=True)

    def update_log_head(self, ino: int, head_page: int) -> None:
        self.dev.write_atomic64(self.addr_of(ino) + _OFF_LOG_HEAD, head_page,
                                persist=True)

    def update_size(self, ino: int, size: int) -> None:
        """Lazy size persistence (unmount path; recovery replays the log)."""
        self.dev.write_atomic64(self.addr_of(ino) + _OFF_SIZE, size,
                                persist=True)

    # -- iteration (recovery) ---------------------------------------------------------------

    def iter_valid(self, released: list[int]):
        """Yield every valid, self-consistent inode record, in table order.

        An inode record spans two cache lines; a torn crash can persist
        the valid flag without the ino field.  Such a record was never
        published (its dentry commit comes later), so the scan releases
        it when it reaches it — the correct completion of the interrupted
        create — and appends its ino to ``released``.
        """
        for ino in self._valid_inos():
            rec = self.read(ino)
            if rec.ino == ino and rec.itype in (ITYPE_FILE, ITYPE_DIR,
                                                ITYPE_SYMLINK):
                yield rec
            else:
                self.release(ino)
                released.append(ino)
