"""FACT — the Failure Atomic Consistent Table (paper §IV-C).

A static linear table of 64-byte (one cache line) entries on PM, with no
DRAM index.  It is split in half:

* **DAA** (direct access area, indexes ``0 .. 2^n``): addressed directly
  by the top *n* bits of the SHA-1 fingerprint — one NVM read when there
  is no prefix collision.
* **IAA** (indirect access area, indexes ``2^n .. 2^(n+1)``): holds
  entries whose prefix collided; all entries sharing a prefix form a
  doubly linked list rooted at the DAA slot.

Each entry carries a reference count (RFC — the number of write entries
pointing at the block), an update count (UC — in-flight dedup
transactions targeting the block), the fingerprint, the block address,
``prev``/``next`` chain links, and the **delete pointer** column: the
delete field of slot *B* maps *block address B* to the index of the FACT
entry describing block *B*, so reclamation reaches its entry in two NVM
reads without re-fingerprinting (§IV-C) — the pointers of a run of
blocks, adjacent slots, in one.

Layout notes vs. the paper's Fig. 4
-----------------------------------
Field *order* within the 64 bytes differs from the figure: all 8-byte
fields are placed at 8-aligned offsets (counts@0, block@8, prev@16,
next@24, delete@32, fp@40) so that every pointer/count update is a
legal atomic 64-bit store — the property the consistency scheme needs.
RFC and UC share the aligned word at offset 0, which is what lets
"decrease UC and increase RFC" happen in **one** atomic store.
Link and delete fields store ``index + 1`` with 0 meaning "none", so a
freshly zeroed table is valid without a 2^(n+1)-entry initialization
pass (the paper's ``-1`` sentinel, re-encoded).

The delete column of a slot is independent of the slot's own entry:
every mutation here is field-wise and never touches bytes 32..40 of a
slot except through :meth:`FACT.set_delete` / :meth:`FACT.clear_delete`.
"""

from __future__ import annotations

import struct
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, Optional

import numpy as np

from repro.dedup.fingerprint import FP_BYTES, fp_prefix
from repro.nova.layout import PAGE_SIZE, Geometry, Superblock
from repro.obs import MetricsRegistry
from repro.pm.device import CrashRequested, PMDevice

__all__ = ["FACT", "FactTxn", "FactEntry", "FactFull", "FactCorruption",
           "LookupResult"]

#: Per-lookup chain-walk length buckets (NVM entry reads, not time).
LOOKUP_STEP_BUCKETS = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32)

ENTRY = 64
_OFF_COUNTS = 0
_OFF_BLOCK = 8
_OFF_PREV = 16
_OFF_NEXT = 24
_OFF_DELETE = 32
_OFF_FP = 40
_OFF_WEAK = 60

#: The IAA mark rises a FACT page of slots at a time.
_MARK_STEP = PAGE_SIZE // ENTRY

_UC_UNIT = 1 << 32
_RFC_MASK = (1 << 32) - 1

#: The entry codec: counts, block, prev+1, next+1, delete+1, fingerprint
#: (bytes 60..64, the weak column, belong to *block* ``idx``).
_ENTRY = struct.Struct(f"<5Q{FP_BYTES}s")

_SCAN_DTYPE = np.dtype({
    "names": ["counts", "block", "prev", "next", "delete", "weak"],
    "formats": ["<u8"] * 5 + ["<u4"],
    "offsets": [_OFF_COUNTS, _OFF_BLOCK, _OFF_PREV, _OFF_NEXT, _OFF_DELETE,
                _OFF_WEAK],
    "itemsize": ENTRY,
})


class FactFull(Exception):
    """The IAA has no free slot for a colliding fingerprint."""


class FactCorruption(AssertionError):
    """A FACT structural invariant does not hold."""


@dataclass
class FactEntry:
    """Decoded DRAM view of one slot (links as indexes, -1 = none)."""

    idx: int
    refcount: int
    update_count: int
    block: int
    prev: int
    next: int
    delete: int
    fp: bytes

    @property
    def valid(self) -> bool:
        return self.block != 0


@dataclass
class LookupResult:
    """Outcome of a fingerprint lookup."""

    found: Optional[FactEntry]   # None = unique chunk
    tail_idx: int                # last chain slot visited (insert point)
    steps: int                   # NVM entry reads performed
    head_empty: bool             # the DAA slot itself is writable
    head_next: int               # the DAA slot's ``next`` link (-1 = none)


def _entry(idx: int, counts: int, block: int, prev: int, nxt: int,
           delete: int, fp: bytes) -> FactEntry:
    """One slot's unpacked :data:`_ENTRY` fields as a :class:`FactEntry`."""
    return FactEntry(idx, counts & _RFC_MASK, counts >> 32, block,
                     prev - 1, nxt - 1, delete - 1, fp)


class FACT:
    """The persistent dedup metadata table."""

    def __init__(self, dev: PMDevice, geo: Geometry,
                 registry: Optional[MetricsRegistry] = None):
        if not geo.fact_page:
            raise ValueError("filesystem was formatted without a FACT region")
        self.dev = dev
        self.base = geo.fact_page * PAGE_SIZE
        self.prefix_bits = geo.fact_prefix_bits
        self.daa_size = 2 ** geo.fact_prefix_bits
        self.total = 2 * self.daa_size
        self._sb = Superblock(dev)
        self._free: Optional[list[int]] = None  # see _iaa_free
        self._mark: Optional[int] = None        # see iaa_mark
        self._dram: Optional[bytearray] = None  # see in_dram
        # Observability (DRAM, rebuilt freely).
        if registry is None:
            registry = MetricsRegistry()
        self._c_lookups = registry.counter("fact.lookups_total")
        self._c_lookup_steps = registry.counter("fact.lookup_steps_total")
        self._c_daa_hits = registry.counter("fact.daa_hits_total")
        self._c_inserts = registry.counter("fact.inserts_total")
        self._c_removes = registry.counter("fact.removes_total")
        self._c_reorders = registry.counter("fact.reorders_total")
        self._c_iaa_inserts = registry.counter("fact.iaa_inserts_total")
        self._h_steps = registry.histogram(
            "fact.lookup_steps", buckets=LOOKUP_STEP_BUCKETS,
            help="NVM entry reads per fingerprint lookup (chain walk)")
        registry.gauge_fn(
            "fact.occupancy_entries", self._count_valid,
            help="valid FACT entries (DAA + IAA)")
        self.chain_accesses: dict[int, int] = {}  # head idx -> deep lookups

    @property
    def _iaa_free(self) -> list[int]:
        """The volatile IAA free list, highest slot first (``pop`` takes
        the lowest; a freed slot is reused first).

        A fresh table's list (every IAA slot) is built on first use:
        every mount replaces it first (:meth:`restore_iaa_free`,
        :meth:`rebuild_iaa_free`), so only a freshly formatted table
        ever builds it — and its mark is the 0 mkfs stored, unread.
        """
        if self._free is None:
            self._free = list(range(self.total - 1, self.daa_size - 1, -1))
            if self._mark is None:
                self._mark = 0
        return self._free

    @property
    def iaa_mark(self) -> int:
        """IAA slots ``[0, mark)`` may hold entries, none past them.

        The superblock word, read on first use (a mount reads it once,
        the write path never); the whole IAA on an image formatted
        before the mark.  Kept exact by :meth:`insert`.
        """
        if self._mark is None:
            mark = self._sb.iaa_mark()
            self._mark = self.daa_size if mark is None \
                else min(mark, self.daa_size)
        return self._mark

    @_iaa_free.setter
    def _iaa_free(self, free: list[int]) -> None:
        self._free = free

    def _count_valid(self) -> int:
        """Cheap occupancy read for the callback gauge (silent scan)."""
        return int((self._peek()["block"] != 0).sum())

    # ------------------------------------------------------------ raw slot access

    def addr(self, idx: int) -> int:
        if not 0 <= idx < self.total:
            raise ValueError(f"FACT index {idx} out of range (<{self.total})")
        return self.base + idx * ENTRY

    def read_entry(self, idx: int) -> FactEntry:
        """One NVM read of a full entry (the unit of lookup cost)."""
        raw = self.dev.read(self.addr(idx), ENTRY)
        return self._decode(idx, raw)

    @staticmethod
    def _decode(idx: int, raw: bytes, at: int = 0) -> FactEntry:
        return _entry(idx, *_ENTRY.unpack_from(raw, at))

    def _write_fields(self, idx: int, counts: int, block: int, prev: int,
                      nxt: int, fp: bytes) -> None:
        """Store everything *except* the delete and weak columns, persist.

        The whole slot is one cache line, so this is still a single
        clwb + sfence — the §IV-C "fit in a cache line" property.
        Bytes 60..64 (the weak-fingerprint column of slot ``idx``, which
        describes *block* ``idx``, not this entry) are left untouched for
        the same reason the delete column is.
        """
        a = self.addr(idx)
        raw = _ENTRY.pack(counts, block, prev + 1, nxt + 1, 0, fp)
        self.dev.write(a, raw[:_OFF_DELETE])
        self.dev.write(a + _OFF_FP, raw[_OFF_FP:], persist=True)
        if self._dram is not None:
            at = idx * ENTRY
            self._dram[at:at + _OFF_DELETE] = raw[:_OFF_DELETE]
            self._dram[at + _OFF_FP:at + _OFF_WEAK] = raw[_OFF_FP:]

    def _write_u64(self, idx: int, off: int, value: int) -> None:
        self.dev.write_atomic64(self.addr(idx) + off, value, persist=True)
        if self._dram is not None:
            at = idx * ENTRY + off
            self._dram[at:at + 8] = int(value).to_bytes(8, "little")

    def _read_u64(self, idx: int, off: int) -> int:
        return self.dev.read_u64(self.addr(idx) + off)

    def _counts(self, idx: int, seen: Optional[FactEntry]) -> int:
        """Entry ``idx``'s counts word: from ``seen``, the entry the
        calling operation has just read and not flushed since (the line
        is still in the CPU cache), else one NVM read."""
        if seen is None:
            return self._read_u64(idx, _OFF_COUNTS)
        return seen.update_count * _UC_UNIT + seen.refcount

    # ------------------------------------------------------------ prefix / chains

    def head_of(self, fp: bytes) -> int:
        return fp_prefix(fp, self.prefix_bits)

    def chain(self, head_idx: int, silent: bool = False) -> Iterator[FactEntry]:
        """Walk a chain via ``next`` links (cycle-guarded)."""
        idx = head_idx
        seen = 0
        while idx >= 0:
            if seen > self.total:
                raise FactCorruption(f"chain at {head_idx} has a cycle")
            if silent:
                ent = self._decode(idx, self.dev.read_silent(self.addr(idx),
                                                             ENTRY))
            else:
                ent = self.read_entry(idx)
            yield ent
            idx = ent.next
            seen += 1

    # ------------------------------------------------------------ lookup / insert

    def lookup(self, fp: bytes) -> LookupResult:
        """Find the entry for ``fp`` (§IV-C lookup path).

        Cost: one NVM entry read per chain position visited — one read
        when the answer sits in the DAA, more as the chain grows (the
        motivation for the §IV-E reordering).
        """
        head_idx = self.head_of(fp)
        self._c_lookups.inc()
        steps = 0
        tail = head_idx
        head_empty = False
        head_next = -1
        found = None
        # :meth:`chain`'s walk over undecoded tuples: only a hit is worth
        # a FactEntry.
        read, addr, total = self.dev.read, self.addr, self.total
        idx = head_idx
        while idx >= 0:
            if steps > total:
                raise FactCorruption(f"chain at {head_idx} has a cycle")
            fields = _ENTRY.unpack_from(read(addr(idx), ENTRY))
            _counts, block, _prev, nxt, _delete, entry_fp = fields
            steps += 1
            tail = idx
            if steps == 1:
                head_next = nxt - 1
                head_empty = block == 0
            if block and entry_fp == fp:
                if steps == 1:
                    self._c_daa_hits.inc()
                else:
                    self.chain_accesses[head_idx] = \
                        self.chain_accesses.get(head_idx, 0) + 1
                found = _entry(idx, *fields)
                break
            idx = nxt - 1
        self._c_lookup_steps.inc(steps)
        self._h_steps.observe(steps)
        return LookupResult(found=found, tail_idx=tail, steps=steps,
                            head_empty=head_empty, head_next=head_next)

    def insert(self, fp: bytes, block: int,
               hint: Optional[LookupResult] = None) -> int:
        """Insert a new entry for a unique chunk with ``UC=1, RFC=0``.

        Persistence order is the crash-safety argument:

        1. entry fields (counts/block/links/fp) — persisted, unreachable;
        2. delete pointer for ``block`` — persisted, still unreachable;
        3. chain link (tail's ``next`` or the DAA head itself) — the
           atomic publish.

        A crash before step 3 leaves an orphan slot that recovery zeroes;
        after step 3 the entry exists with UC=1, which recovery either
        commits (an ``in_process`` write entry references it) or discards.
        """
        if block <= 0:
            raise ValueError("block 0 is reserved as the invalid marker")
        head_idx = self.head_of(fp)
        if hint is None:
            hint = self.lookup(fp)
        if hint.found is not None:
            raise ValueError("insert of a fingerprint already present")
        self._c_inserts.inc()
        if hint.head_empty:
            # The DAA slot is free: write it in place, preserving any
            # existing chain continuation in its next link (read by the
            # lookup, the line is still cached).
            self._write_fields(head_idx, _UC_UNIT, block, -1,
                               hint.head_next, fp)
            self.set_delete(block, head_idx)
            return head_idx
        if not self._iaa_free:
            raise FactFull("no free IAA slot for colliding fingerprint")
        new_idx = self._iaa_free.pop()
        self._c_iaa_inserts.inc()
        slot = new_idx - self.daa_size
        if slot >= self.iaa_mark:
            # Durable before the first store past the old mark, so no
            # crash leaves an entry beyond it.
            self._mark = min(slot - slot % _MARK_STEP + _MARK_STEP,
                             self.daa_size)
            self._sb.set_iaa_mark(self._mark)
        self._write_fields(new_idx, _UC_UNIT, block, hint.tail_idx, -1, fp)
        self.set_delete(block, new_idx)
        self._write_u64(hint.tail_idx, _OFF_NEXT, new_idx + 1)  # publish
        return new_idx

    def materialise(self, fp: bytes, block: int,
                    hint: Optional[LookupResult] = None) -> Optional[int]:
        """Insert an entry born settled at ``RFC=1``, for a block a file
        already maps (hybrid's lazy canonical); None when the table is full."""
        txn = FactTxn(self)
        idx = txn.claim(fp, block, hint)
        txn.commit()
        return idx

    # ------------------------------------------------------------ counts (UC/RFC)

    def inc_uc(self, idx: int, seen: Optional[FactEntry] = None) -> None:
        """Begin a dedup transaction against this entry (Alg. 1 step 3);
        ``seen`` as in :meth:`_counts`."""
        counts = self._counts(idx, seen)
        self._write_u64(idx, _OFF_COUNTS, counts + _UC_UNIT)

    def commit_uc(self, idx: int, seen: Optional[FactEntry] = None) -> bool:
        """UC -= 1, RFC += 1 in one atomic store (Alg. 1 step 6).

        Returns False (no-op) when UC is already 0 — the recovery path
        re-runs commits and counts are fungible across transactions, so
        skipping on zero is exactly the paper's idempotence argument.
        """
        counts = self._counts(idx, seen)
        if counts >> 32 == 0:
            return False
        self._write_u64(idx, _OFF_COUNTS, counts + 1 - _UC_UNIT)
        return True

    def discard_uc(self, idx: int) -> None:
        """Drop staged UC (failed transaction, §V-C1 handling II)."""
        counts = self._read_u64(idx, _OFF_COUNTS)
        if counts >> 32:
            self._write_u64(idx, _OFF_COUNTS, counts & _RFC_MASK)

    def dec_rfc(self, idx: int, seen: Optional[FactEntry] = None) -> int:
        """RFC -= 1 (reclaim path); returns the new RFC."""
        counts = self._counts(idx, seen)
        rfc = counts & _RFC_MASK
        if rfc == 0:
            raise FactCorruption(f"FACT[{idx}]: RFC underflow")
        self._write_u64(idx, _OFF_COUNTS, counts - 1)
        return rfc - 1

    def raise_rfc(self, idx: int, rfc: int) -> None:
        """Undercount repair (recovery; every UC is discarded by then)."""
        self._write_u64(idx, _OFF_COUNTS, rfc)

    def retire(self, idx: int) -> None:
        """Remove an entry no file references, whatever it counts (§V-C2)."""
        if self._read_u64(idx, _OFF_COUNTS):
            self._write_u64(idx, _OFF_COUNTS, 0)
        self.remove(idx)

    # ------------------------------------------------------------ retarget

    def retarget_block(self, idx: int, new_block: int) -> int:
        """Move entry ``idx``'s canonical page to ``new_block`` (RevDedup).

        The out-of-line relocation pass copies the data first and
        repoints every referencing write entry before calling this, so
        the entry's counts are untouched — only *where* the canonical
        page lives changes.  Persistence order:

        1. delete pointer for ``new_block`` — persisted, but the entry
           still names the old block, so a crash here leaves a
           mismatched pointer that :meth:`structural_recover` pass 3
           clears;
        2. the block field — **one atomic 64-bit store**, the commit
           point of the move;
        3. the old block's delete pointer and weak hint are retired
           (a crash between 2 and 3 again leaves only mismatched
           pointers for pass 3).

        Idempotent: retargeting an entry already at ``new_block`` only
        re-runs the (harmless) pointer writes.  Returns the old block.
        """
        ent = self.read_entry(idx)
        if not ent.valid:
            raise ValueError(f"retarget of invalid FACT[{idx}]")
        if new_block <= 0:
            raise ValueError("block 0 is reserved as the invalid marker")
        old = ent.block
        self.set_delete(new_block, idx)
        weak = self.block_weak(old)
        if weak:
            self.set_block_weak(new_block, weak)
        self._write_u64(idx, _OFF_BLOCK, new_block)  # the atomic switch
        if old != new_block:
            if self._read_u64(old, _OFF_DELETE) == idx + 1:
                self.clear_delete(old)
            if weak:
                self.clear_block_weak(old)
        return old

    # ------------------------------------------------------------ delete pointers

    def set_delete(self, block: int, idx: int) -> None:
        """Map block address -> entry index (stored in slot ``block``)."""
        self._write_u64(block, _OFF_DELETE, idx + 1)

    def clear_delete(self, block: int) -> None:
        self._write_u64(block, _OFF_DELETE, 0)

    def delete_run(self, block: int, n: int, silent: bool = False
                   ) -> list[int]:
        """The delete pointers of blocks ``[block, block + n)`` (entry
        index + 1, 0 = none): one request of ``(n - 1) * 64 + 8`` bytes,
        the slots being adjacent, decoded through a strided view."""
        self.addr(block + n - 1)  # the run's last slot is in range
        read = self.dev.read_silent if silent else self.dev.read
        raw = read(self.addr(block) + _OFF_DELETE, (n - 1) * ENTRY + 8)
        return np.frombuffer(raw, "<u8")[::ENTRY // 8].tolist()

    def entries_for_run(self, block: int, n: int
                        ) -> Iterator[Optional[FactEntry]]:
        """The §IV-C reclaim path for blocks ``[block, block + n)``: the
        run's pointers (:meth:`delete_run`; no count update or
        :meth:`remove` stores one but its own block's), then, as the
        caller reaches each block, the entry its pointer names — None
        when there is none — whose counts the caller's update reuses."""
        for i, val in enumerate(self.delete_run(block, n)):
            ent = self.read_entry(val - 1) if val else None
            yield ent if ent and ent.valid and ent.block == block + i \
                else None

    def entry_for_block(self, block: int) -> Optional[FactEntry]:
        """:meth:`entries_for_run` of one block: an 8-byte pointer read,
        then the entry it names (none when the pointer is empty)."""
        return next(self.entries_for_run(block, 1))

    # ------------------------------------------------------------ weak column

    def set_block_weak(self, block: int, weak: int) -> None:
        """Record block ``block``'s weak fingerprint in slot ``block``.

        Bytes 60..64 of slot *B* hold the CRC32-style weak fingerprint of
        *block B*'s content (0 = unregistered — callers remap a genuine
        CRC of 0 to 1).  Like the delete column, the field is indexed by
        block address and independent of the slot's own entry.  It is a
        crash-safe *hint*: a stale or torn value only costs an extra
        strong-fingerprint comparison, never a wrong dedup — the strong
        confirmation validates content before any page is shared.
        """
        self.dev.write_u32(self.addr(block) + _OFF_WEAK, weak, persist=True)
        if self._dram is not None:
            at = block * ENTRY + _OFF_WEAK
            self._dram[at:at + 4] = int(weak).to_bytes(4, "little")

    def clear_block_weak(self, block: int) -> None:
        self.set_block_weak(block, 0)

    def block_weak(self, block: int) -> int:
        """The recorded weak fingerprint of block ``block`` (0 = none)."""
        return int.from_bytes(
            self.dev.read_silent(self.addr(block) + _OFF_WEAK, 4), "little")

    def weak_column(self) -> dict[int, int]:
        """All registered (block -> weak) pairs, one charged bulk scan
        (:meth:`_scan`: free inside :meth:`in_dram`).

        Mount-time rebuild of the DRAM weak index: the caller intersects
        this with the radix-derived set of *live* data blocks, which is
        what makes stale registrations (freed blocks) harmless.
        """
        weak = self._scan("weak", stop=self.daa_size)["weak"]  # block < 2^n
        return {int(b): int(weak[b]) for b in np.nonzero(weak)[0]}

    # ------------------------------------------------------------ removal

    def remove(self, idx: int) -> None:
        """Retire an entry whose RFC reached 0.

        IAA slots are unlinked (``prev.next`` first — the atomic publish
        of the removal; stale ``prev`` links are canonicalized by
        recovery) then zeroed; a DAA head is zeroed in place, keeping its
        ``next`` so the rest of the chain stays reachable.  The slot's
        own delete *column* is never touched — only the mapping for the
        removed entry's block.
        """
        ent = self.read_entry(idx)
        if not ent.valid:
            raise ValueError(f"remove of invalid FACT[{idx}]")
        self._c_removes.inc()
        if idx < self.daa_size:
            self.clear_delete(ent.block)
            self._write_fields(idx, 0, 0, -1, ent.next, bytes(FP_BYTES))
            return
        # IAA: unlink, then scrub.
        self._write_u64(ent.prev, _OFF_NEXT, ent.next + 1)  # publish removal
        if ent.next >= 0:
            self._write_u64(ent.next, _OFF_PREV, ent.prev + 1)
        self.clear_delete(ent.block)
        self._write_fields(idx, 0, 0, -1, -1, bytes(FP_BYTES))
        self._iaa_free.append(idx)

    # ------------------------------------------------------------ bulk scans

    @contextmanager
    def in_dram(self):
        """Serve the whole-table passes from one charged read (recovery).

        Inside the block, :meth:`_scan` and :meth:`live_entries` decode a
        DRAM copy of the region taken by one bulk NVM read on entry — of
        the DAA and ``IAA[:mark]``, the slots past the mark being zero —
        and the three device writers (:meth:`_write_fields`,
        :meth:`_write_u64`, :meth:`set_block_weak`) store to both, so a
        pass sees exactly the bytes a re-read would.  Point reads stay
        device reads; no device store moves.
        """
        used = (self.daa_size + self.iaa_mark) * ENTRY
        dram = bytearray(self.total * ENTRY)
        dram[:used] = self.dev.read_view(self.base, used)
        self._dram = dram
        try:
            yield
        finally:
            self._dram = None

    def _scan(self, *fields: str, start: int = 0,
              stop: Optional[int] = None) -> dict[str, np.ndarray]:
        """Vectorized scan of slots ``[start, stop)`` (default: the whole
        table) for recovery / analysis.

        Charges one bulk NVM read for those slots (none inside
        :meth:`in_dram`, none for no slot) and returns the named columns
        of :data:`_SCAN_DTYPE` as they are at that moment — copies, a
        column each: no per-entry Python loop for the common fields (per
        the HPC guides: vectorize the bulk path) and nothing table-sized
        allocated.
        """
        lo, hi = start * ENTRY, (self.total if stop is None else stop) * ENTRY
        if self._dram is not None:
            raw = memoryview(self._dram)[lo:hi]
        else:
            raw = self.dev.read_view(self.base + lo, hi - lo) if hi > lo \
                else b""
        table = np.frombuffer(raw, dtype=_SCAN_DTYPE)
        return {name: table[name].copy() for name in fields}

    def _peek(self) -> np.ndarray:
        """The whole table as :data:`_SCAN_DTYPE` rows from one silent
        device read (gauges, reports, checks): unlike :meth:`_scan`."""
        return np.frombuffer(
            self.dev.read_silent(self.base, self.total * ENTRY),
            dtype=_SCAN_DTYPE)

    def rebuild_iaa_free(self) -> int:
        """Rebuild the volatile IAA free list from a (charged) scan of
        ``IAA[:mark]``: every slot past the mark is free.

        Clean mounts must call this (or :meth:`restore_iaa_free`) before
        the first insert: the list a table starts with marks every IAA
        slot free, which is only true for a freshly-formatted FACT.
        Returns the number of free IAA slots.
        """
        daa, mark = self.daa_size, self.iaa_mark
        free = np.flatnonzero(
            self._scan("block", start=daa, stop=daa + mark)["block"] == 0)
        self._iaa_free = list(range(self.total - 1, daa + mark - 1, -1)) \
            + (free[::-1] + daa).tolist()  # high first
        return len(self._iaa_free)

    def _active_heads(self, block: np.ndarray, nxt: np.ndarray,
                      prev: np.ndarray) -> list[int]:
        """DAA heads of a scanned table (its ``block``, ``next`` and
        ``prev`` columns) with anything to walk or check.

        A head whose ``block``, ``next`` and ``prev`` are all zero is an
        empty chain with no commit flag: the whole-table passes have
        nothing to verify, repair or count there, and almost every head
        of a 2^n-entry DAA is one.
        """
        daa = self.daa_size
        return np.flatnonzero((block[:daa] != 0) | (nxt[:daa] != 0)
                              | (prev[:daa] != 0)).tolist()

    def iaa_occupied(self) -> list[int]:
        """What a checkpoint records for :meth:`restore_iaa_free`."""
        free = set(self._iaa_free)
        return [idx for idx in range(self.daa_size, self.total)
                if idx not in free]

    def restore_iaa_free(self, occupied) -> int:
        """Restore the IAA free list from a checkpointed occupancy set.

        ``occupied`` lists the IAA indices that held valid entries when
        the checkpoint was written — the complement becomes the free
        list, with no FACT scan at all (but a read of the mark, which
        this mount's inserts go on).
        """
        end = self.daa_size + self.iaa_mark
        occ = set(occupied)
        self._iaa_free = list(range(self.total - 1, end - 1, -1)) + [
            idx for idx in range(end - 1, self.daa_size - 1, -1)
            if idx not in occ]
        return len(self._iaa_free)

    def live_entries(self) -> dict[int, FactEntry]:
        """Decoded view of every valid slot (reports; recovery's from
        its :meth:`in_dram` copy)."""
        return self._entries(self._peek() if self._dram is None
                             else np.frombuffer(self._dram,
                                                dtype=_SCAN_DTYPE))

    def audit(self) -> tuple[dict[int, FactEntry], Callable[[], None]]:
        """An invariant check's one read of the table: its live entries,
        and :meth:`check_chains` bound to the same rows — call that
        after the per-entry checks, so they report first."""
        arr = self._peek()
        return self._entries(arr), partial(self._check_chains, arr)

    def _entries(self, arr: np.ndarray) -> dict[int, FactEntry]:
        return {i: self._decode(i, arr, i * ENTRY)
                for i in np.flatnonzero(arr["block"]).tolist()}

    def occupancy(self) -> dict:
        """DAA/IAA usage and chain-length statistics."""
        arr = self._peek()
        valid = arr["block"] != 0
        nxt = arr["next"]
        daa_used = int(valid[:self.daa_size].sum())
        iaa_used = int(valid[self.daa_size:].sum())
        lengths = []
        for head in self._active_heads(arr["block"], nxt, arr["prev"]):
            if valid[head] or nxt[head]:
                n = 0
                idx = head
                while idx >= 0:
                    if valid[idx]:
                        n += 1
                    idx = int(nxt[idx]) - 1
                lengths.append(n)
        return {
            "daa_used": daa_used,
            "iaa_used": iaa_used,
            "entries": daa_used + iaa_used,
            "iaa_free": len(self._iaa_free),
            "max_chain": max(lengths, default=0),
            "mean_chain": float(np.mean(lengths)) if lengths else 0.0,
            "bytes": self.total * ENTRY,
        }

    # ------------------------------------------------------------ recovery

    def structural_recover(self) -> dict:
        """Repair table structure after a crash (before log-based fixups),
        once :func:`repro.dedup.reorder.recover_reorders` has settled any
        in-flight chain reorder (Fig. 7 protocol):

        * canonicalize ``prev`` links from the authoritative ``next``
          chain (stale prevs from crashed removals);
        * zero valid-but-unlinked IAA slots (crashed inserts) and clear
          their delete pointers;
        * drop delete pointers that no longer match their entry;
        * rebuild the volatile IAA free list.
        """
        report = {"orphans_zeroed": 0, "prevs_fixed": 0,
                  "deletes_cleared": 0}
        prev, nxt, blocks = self._scan("prev", "next", "block").values()
        # Pass 1: canonicalize prev links; collect linked IAA slots.
        linked: set[int] = set()
        for head in self._active_heads(blocks, nxt, prev):
            prev_idx = -1
            idx = head
            hops = 0
            while idx >= 0:
                if hops > self.total:
                    raise FactCorruption(f"post-recovery cycle at {head}")
                if idx != head:
                    linked.add(idx)
                want = 0 if idx == head else prev_idx + 1
                if int(prev[idx]) != want:
                    self._write_u64(idx, _OFF_PREV, want)
                    report["prevs_fixed"] += 1
                prev_idx = idx
                idx = int(nxt[idx]) - 1
                hops += 1
        # Pass 2: orphan IAA slots (valid, never linked).
        valid_iaa = np.flatnonzero(blocks[self.daa_size:]) + self.daa_size
        for idx in valid_iaa.tolist():
            if idx not in linked:
                block = int(blocks[idx])
                # Clear the orphan's delete pointer only if it points here.
                if self._read_u64(block, _OFF_DELETE) == idx + 1:
                    self.clear_delete(block)
                    report["deletes_cleared"] += 1
                self._write_fields(idx, 0, 0, -1, -1, bytes(FP_BYTES))
                report["orphans_zeroed"] += 1
        # Pass 3: delete-pointer validation.
        deletes, blocks = self._scan("delete", "block").values()
        for slot in np.flatnonzero(deletes).tolist():
            tgt = int(deletes[slot]) - 1
            if tgt >= self.total or blocks[tgt] != slot:
                self.clear_delete(slot)
                report["deletes_cleared"] += 1
        # Pass 4: volatile free list.
        self.rebuild_iaa_free()
        return report

    def discard_all_uc(self) -> int:
        """§V-C1: leftover UCs are failed transactions — zero them."""
        counts = self._scan("counts")["counts"]
        discarded = 0
        for idx in np.nonzero(counts >> 32)[0]:
            self.discard_uc(int(idx))
            discarded += 1
        return discarded

    def remove_dead(self) -> int:
        """Remove linked entries with RFC == 0 and UC == 0."""
        blocks, counts = self._scan("block", "counts").values()
        removed = 0
        for idx in np.nonzero((blocks != 0) & (counts == 0))[0]:
            self.remove(int(idx))
            removed += 1
        return removed

    # ------------------------------------------------------------ invariants

    def check_chains(self) -> None:
        """Raise :class:`FactCorruption` on any structural violation."""
        self._check_chains(self._peek())

    def _check_chains(self, arr: np.ndarray) -> None:
        prev, nxt, blocks = arr["prev"], arr["next"], arr["block"]
        fps = arr.view(np.uint8).reshape(-1, ENTRY)[:, _OFF_FP:_OFF_FP
                                                    + FP_BYTES]
        linked: set[int] = set()
        for head in self._active_heads(blocks, nxt, prev):
            if int(prev[head]) != 0:
                raise FactCorruption(
                    f"head {head}: reorder commit flag left set")
            prev_idx = -1
            idx = head
            hops = 0
            while idx >= 0:
                if hops > self.total:
                    raise FactCorruption(f"cycle in chain {head}")
                if idx != head:
                    if idx < self.daa_size:
                        raise FactCorruption(
                            f"chain {head} links into the DAA at {idx}")
                    if idx in linked:
                        raise FactCorruption(
                            f"slot {idx} linked from two chains")
                    linked.add(idx)
                    if blocks[idx] == 0:
                        raise FactCorruption(
                            f"chain {head} links invalid slot {idx}")
                    if int(prev[idx]) != prev_idx + 1:
                        raise FactCorruption(
                            f"slot {idx}: prev={int(prev[idx]) - 1} "
                            f"but chain predecessor is {prev_idx}")
                if blocks[idx] != 0:
                    fp = fps[idx].tobytes()
                    if fp_prefix(fp, self.prefix_bits) != head:
                        raise FactCorruption(
                            f"slot {idx} in chain {head} has prefix "
                            f"{fp_prefix(fp, self.prefix_bits)}")
                prev_idx = idx
                idx = int(nxt[idx]) - 1
                hops += 1
        # Every valid IAA slot is reachable from exactly one chain.
        valid = np.flatnonzero(blocks).tolist()
        for idx in valid:
            if idx >= self.daa_size and idx not in linked:
                raise FactCorruption(f"valid IAA slot {idx} is unreachable")
        # Delete pointers of valid entries resolve to themselves.
        deletes = arr["delete"]
        for idx in valid:
            block = int(blocks[idx])
            if int(deletes[block]) != idx + 1:
                raise FactCorruption(
                    f"entry {idx} (block {block}): delete pointer "
                    f"is {int(deletes[block]) - 1}")


class FactTxn:
    """The counts one dedup operation has staged and not yet settled.

    Algorithm 1's transaction shape, once: stage an update count per
    page, publish the operation's log entries by one tail update, then
    :meth:`commit` — or, when it fails before the tail update,
    :meth:`abort`: §V-C1's discard on the live mount instead of at the
    next recovery.  As a context manager an exception before the commit
    aborts; a simulated power loss does not (no code runs after a crash;
    what was staged is recovery's).  docs/CONSISTENCY.md §4.
    """

    def __init__(self, fact: FACT):
        self.fact = fact
        self._units: list[tuple[int, bool]] = []  # (idx, claimed), in order

    def share(self, idx: int, seen: Optional[FactEntry] = None) -> None:
        """Stage one more reference to an existing entry (``UC += 1``);
        ``seen`` is the entry the caller has just looked up, if it has."""
        self.fact.inc_uc(idx, seen)
        self._units.append((idx, False))

    def claim(self, fp: bytes, block: int,
              hint: Optional[LookupResult] = None) -> Optional[int]:
        """Insert an entry (``UC=1``) for ``block``, a page the operation's
        own file maps.  None when the table is full: nothing was staged."""
        try:
            idx = self.fact.insert(fp, block, hint)
        except FactFull:
            return None
        self._units.append((idx, True))
        return idx

    def commit(self) -> None:
        """Alg. 1 step 6: one ``UC-1, RFC+1`` store per unit, in order."""
        units, self._units = self._units, []
        for idx, _claimed in units:
            self.fact.commit_uc(idx)

    def abort(self) -> None:
        """Drop exactly the units this transaction staged, newest first.

        A shared unit is one ``UC -= 1``; a claimed entry nobody else
        counts on is removed.  A claimed entry another transaction has
        shared meanwhile (parallel workers) settles instead: its file
        still maps the page, so dropping the unit would let the sharer's
        commit land on ``RFC=1`` for two live references; the aborted
        operation's re-run self-hits with ``RFC >= 1`` and adds nothing.
        """
        fact = self.fact
        while self._units:
            idx, claimed = self._units.pop()
            counts = fact._read_u64(idx, _OFF_COUNTS)
            if not claimed:
                fact._write_u64(idx, _OFF_COUNTS, counts - _UC_UNIT)
            elif counts == _UC_UNIT:
                fact.remove(idx)
            else:
                fact.commit_uc(idx)

    def __enter__(self) -> "FactTxn":
        return self

    def __exit__(self, exc_type, _exc, _tb) -> None:
        if exc_type is not None and not issubclass(exc_type, CrashRequested):
            self.abort()
