"""The persistence toolkit: one body per crash-safe rule.

*Header last* — :class:`SlotRecord` (tenant table, checkpoint); *torn
state file ⇒ absent* — :func:`read_state` & co. (chain files, the recv
cursor, the relocation intent); *cursor / budget / resume* —
:func:`sweep` + :class:`SweepCursors` (scrub, deep_verify, relocate).
docs/CONSISTENCY.md §8d maps every protocol in the tree to its idiom.
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import Callable, Iterable, Optional

from repro.nova.errors import FSError
from repro.nova.inode import ITYPE_DIR

__all__ = ["HDR_BYTES", "SlotRecord", "lexists", "read_state",
           "write_state", "remove_state", "prune_dir", "remove_tree",
           "sweep", "SweepCursors"]

_HDR = struct.Struct("<QQQQ")       # magic, seq, payload_len, crc32
HDR_BYTES = _HDR.size


def _crc(seq: int, payload: bytes) -> int:
    return zlib.crc32(payload + struct.pack("<QQ", seq, len(payload)))


class SlotRecord:
    """``slots`` equal device slots holding header-last CRC records.

    The payload is persisted first, the header that validates it last,
    and the CRC covers payload, ``seq`` and length — a crash leaves the
    previous record or a slot that fails validation, never a mix.  A
    record lands in slot ``seq % slots``; with one slot a torn save
    leaves no record at all (the record must be advisory).
    """

    def __init__(self, dev, base: int, slot_bytes: int, *, magic: int,
                 slots: int = 1, payload_off: int = HDR_BYTES):
        self.dev = dev
        self.base = base
        self.slot_bytes = slot_bytes
        self.magic = magic
        self.slots = slots
        self.payload_off = payload_off
        self.capacity = slot_bytes - payload_off    # largest payload

    def store(self, seq: int, payload: bytes) -> None:
        if len(payload) > self.capacity:
            raise ValueError(f"{len(payload)} B payload exceeds the slot")
        slot = self.base + (seq % self.slots) * self.slot_bytes
        if payload:
            self.dev.write(slot + self.payload_off, payload, nt=True,
                           persist=True)
        self.dev.write(slot, _HDR.pack(self.magic, seq, len(payload),
                                       _crc(seq, payload)), persist=True)

    def load(self) -> Optional[tuple[int, bytes]]:
        """The valid ``(seq, payload)`` with the highest ``seq``, if any."""
        valid = []
        for i in range(self.slots):
            slot = self.base + i * self.slot_bytes
            magic, seq, length, crc = _HDR.unpack(
                self.dev.read(slot, HDR_BYTES))
            if magic != self.magic or length > self.capacity:
                continue
            payload = self.dev.read(slot + self.payload_off, length)
            if _crc(seq, payload) == crc:
                valid.append((seq, payload))
        return max(valid, default=None)

    def invalidate(self) -> None:
        """Zero every header so no stored record can validate again."""
        for i in range(self.slots):
            slot = self.base + i * self.slot_bytes
            self.dev.zero_range(slot, HDR_BYTES, persist=True)


# ---------------------------------------------------------------- state files
#
# A small JSON document in a file *inside* the image.  Its rewrite is not
# atomic: a crash inside it leaves an empty or garbled file, which reads
# as absent — the protocols on top treat that as "never written".

def lexists(fs, path: str) -> bool:
    """Existence without following a final symlink (exists() would)."""
    fs._check_mounted()
    try:
        fs.lookup(path, follow=False)
        return True
    except FSError:
        return False


def read_state(fs, path: str, kind: type = dict, torn=None):
    """The ``kind`` document at ``path``: None when absent, ``torn``
    (by default the same None) when it does not decode to one."""
    if not lexists(fs, path):
        return None
    ino = fs.lookup(path, follow=False)
    try:
        out = json.loads(fs.read(ino, 0, fs.stat(ino).size).decode())
    except (ValueError, UnicodeDecodeError):
        return torn
    return out if isinstance(out, kind) else torn


def write_state(fs, path: str, obj, mkparent: bool = False) -> None:
    """Replace the document at ``path``: truncate, then one write."""
    parent = path.rsplit("/", 1)[0]
    if mkparent and not lexists(fs, parent):
        fs.mkdir(parent)
    if not lexists(fs, path):
        fs.create(path)
    ino = fs.lookup(path, follow=False)
    fs.truncate(ino, 0)
    fs.write(ino, 0, json.dumps(obj).encode())


def prune_dir(fs, path: str, missing_ok: bool = False) -> None:
    """Remove directory ``path`` if it has become empty."""
    if missing_ok and not lexists(fs, path):
        return
    if not fs.listdir(path):
        fs.rmdir(path)


def remove_state(fs, path: str, missing_ok: bool = False) -> None:
    """Unlink the document, then prune its parent directory if emptied."""
    if not missing_ok or lexists(fs, path):
        fs.unlink(path)
    prune_dir(fs, path.rsplit("/", 1)[0], missing_ok)


def remove_tree(fs, path: str) -> int:
    """Remove directory ``path`` and everything under it, each directory
    right after its entries; returns the non-directories unlinked."""
    removed = 0
    for entry in fs.listdir(path):
        child = f"{path}/{entry}"
        ino = fs.lookup(child, follow=False)
        if fs.caches[ino].inode.itype == ITYPE_DIR:
            removed += remove_tree(fs, child)
        else:
            fs.unlink(child)
            removed += 1
    fs.rmdir(path)
    return removed


# ---------------------------------------------------------------- budgeted sweep

def sweep(items: Iterable[tuple[int, object]],
          visit: Callable[[int, object], int], cursor: int = 0,
          budget: Optional[int] = None) -> tuple[int, int, bool]:
    """One budgeted pass over ``(key, item)`` pairs in ascending key order.

    Keys below ``cursor`` were covered by an earlier call and are
    skipped.  ``visit`` returns the budget units it spent; the pass
    pauses *before* the first item it reaches with the budget spent, so
    one visit is never split across calls.  Returns ``(visited,
    next_cursor, done)``; ``next_cursor`` is 0 once the pass completed.
    """
    if budget is not None and budget < 1:
        raise ValueError(f"sweep budget must be >= 1, got {budget}")
    spent = visited = 0
    for key, item in items:
        if key < cursor:
            continue
        if budget is not None and spent >= budget:
            return visited, cursor, False
        spent += visit(key, item)
        visited += 1
        cursor = key + 1
    return visited, 0, True


class SweepCursors:
    """A filesystem's volatile resume points, one gauge per named sweep.
    A cursor may carry a ``tag`` naming what it indexes into (relocate:
    the snapshot); asking for it under another tag restarts from 0."""

    def __init__(self, registry, gauges: dict[str, str]):
        self._at = {name: (None, 0) for name in gauges}  # name: (tag, key)
        for name, metric in gauges.items():
            registry.gauge_fn(metric, lambda name=name: self._at[name][1],
                              help=f"where the next budgeted {name} resumes")

    def get(self, name: str, tag: Optional[str] = None) -> int:
        held_tag, cursor = self._at[name]
        return cursor if held_tag == tag else 0

    def set(self, name: str, cursor: int, tag: Optional[str] = None) -> None:
        self._at[name] = (tag, cursor)

    def run(self, name: str, items, visit, budget: Optional[int] = None,
            tag: Optional[str] = None) -> tuple[int, int, bool]:
        """:func:`sweep` from the held cursor, remembering where it ends."""
        visited, key, done = sweep(items, visit, self.get(name, tag), budget)
        self.set(name, key, tag)
        return visited, key, done
