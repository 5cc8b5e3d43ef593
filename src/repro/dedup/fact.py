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
reads without re-fingerprinting (§IV-C) — an operation's pointers one
request per neighbourhood of slots (:meth:`FactTxn.plan`).

Two persisted bounds keep a mount from reading the whole table: the IAA
mark (a superblock word: no entry at or past it) and the DAA's chunk
map (a region after the table: one bit per :data:`FACT_CHUNK_SLOTS`
slots, set before the first store into the chunk; every other chunk is
zero).  docs/CONSISTENCY.md §4.

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
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from repro.dedup.fingerprint import FP_BYTES, fp_prefix
from repro.nova.layout import FACT_CHUNK_SLOTS, PAGE_SIZE, Superblock
from repro.obs import MetricsRegistry
from repro.pm.device import CrashRequested
from repro.pm.plan import neighbourhoods

__all__ = ["FACT", "FactTxn", "FactEntry", "FactFull", "FactCorruption",
           "LookupResult", "marked_chunks"]

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

    @property
    def counts(self) -> int:
        """The slot's counts word: UC in the high half, RFC in the low."""
        return self.update_count * _UC_UNIT + self.refcount


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


def marked_chunks(words: Sequence[int], daa_size: int) -> np.ndarray:
    """The chunk map's 64-bit words as one bool per DAA chunk of
    :data:`FACT_CHUNK_SLOTS` slots: chunk ``c`` is bit ``c % 64`` of word
    ``c // 64`` (:meth:`FACT._touch` sets it)."""
    bits = np.unpackbits(np.array(words, "<u8").view(np.uint8),
                         bitorder="little")
    return bits[:-(-daa_size // FACT_CHUNK_SLOTS)] != 0


class FACT:
    """The persistent dedup metadata table."""

    def __init__(self, sb: Superblock,
                 registry: Optional[MetricsRegistry] = None):
        geo = sb.geo
        if not geo.fact_page:
            raise ValueError("filesystem was formatted without a FACT region")
        self.sb = sb
        self.dev = sb.dev
        self.base = geo.fact_page * PAGE_SIZE
        self.prefix_bits = geo.fact_prefix_bits
        self.daa_size = 2 ** geo.fact_prefix_bits
        self.total = 2 * self.daa_size
        self.map_base = geo.fact_map_page * PAGE_SIZE  # 0: no chunk map
        self._map_bytes = geo.fact_map_bytes
        self._free: Optional[list[int]] = None  # see _iaa_free
        self._map: Optional[list[int]] = None   # see chunk_map
        self._dram: Optional[bytearray] = None  # see in_dram
        self._flushes = 0                       # see _stored
        self._flushed: dict[int, int] = {}      # slot -> its last flush
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
        ever builds it — and its mark is the 0 mkfs stored.
        """
        if self._free is None:
            self._free = list(range(self.total - 1, self.daa_size - 1, -1))
        return self._free

    @property
    def iaa_mark(self) -> int:
        """IAA slots ``[0, mark)`` may hold entries, none past them.

        The superblock record's word (``Superblock.iaa_mark``); the
        whole IAA on an image formatted before the mark.  Kept exact by
        :meth:`insert`.
        """
        mark = self.sb.iaa_mark()
        return self.daa_size if mark is None else min(mark, self.daa_size)

    @_iaa_free.setter
    def _iaa_free(self, free: list[int]) -> None:
        self._free = free

    def chunk_map(self) -> Optional[list[int]]:
        """The DAA chunk map's DRAM copy, its 64-bit words (decoded by
        :func:`marked_chunks`): a chunk's bit is set when its slots may
        hold a non-zero byte, every slot of a clear chunk being zero;
        None on an image formatted before the map (any chunk may).

        Read in one request on first use: a mount reads it once (in
        :meth:`in_dram`, or before a clean mount's first store), mkfs
        knows it zero (:meth:`formatted`), the write path never reads
        it.  Kept exact by :meth:`_touch`.
        """
        if self._map is None and self.map_base:
            self._map = np.frombuffer(self.dev.read(
                self.map_base, self._map_bytes), "<u8").tolist()
        return self._map

    def formatted(self) -> None:
        """This table was just formatted: its chunk map is zero, unread."""
        if self.map_base:
            self._map = [0] * (self._map_bytes // 8)

    def _touch(self, idx: int) -> None:
        """Mark slot ``idx``'s chunk before a store into it: the first
        store into a DAA chunk is preceded by one atomic, persisted store
        of its map word (§8d), so no crash leaves a non-zero byte in a
        clear chunk.  No bit is ever cleared."""
        if idx >= self.daa_size or not self.map_base:
            return
        words = self._map if self._map is not None else self.chunk_map()
        chunk = idx // FACT_CHUNK_SLOTS
        word, bit = chunk >> 6, 1 << (chunk & 63)
        if words[word] & bit:
            return
        words[word] |= bit
        self.dev.write_atomic64(self.map_base + word * 8, words[word],
                                persist=True)

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
        self._touch(idx)
        self.dev.write(a, raw[:_OFF_DELETE])
        self.dev.write(a + _OFF_FP, raw[_OFF_FP:], persist=True)
        self._stored(idx)
        if self._dram is not None:
            at = idx * ENTRY
            self._dram[at:at + _OFF_DELETE] = raw[:_OFF_DELETE]
            self._dram[at + _OFF_FP:at + _OFF_WEAK] = raw[_OFF_FP:]

    def _write_u64(self, idx: int, off: int, value: int) -> None:
        a = self.addr(idx)
        self._touch(idx)
        self.dev.write_atomic64(a + off, value, persist=True)
        self._stored(idx)
        if self._dram is not None:
            at = idx * ENTRY + off
            self._dram[at:at + 8] = int(value).to_bytes(8, "little")

    def _read_u64(self, idx: int, off: int) -> int:
        return self.dev.read_u64(self.addr(idx) + off)

    def read_counts(self, idx: int) -> int:
        """Entry ``idx``'s counts word, one 8-byte NVM read (a transaction
        reads it through :meth:`FactTxn.word`)."""
        return self._read_u64(idx, _OFF_COUNTS)

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

    def lookup(self, fp: bytes, held: Optional[dict] = None
               ) -> LookupResult:
        """Find the entry for ``fp`` (§IV-C lookup path).

        Cost: one NVM entry read per chain position visited — one read
        when the answer sits in the DAA, more as the chain grows (the
        motivation for the §IV-E reordering).  ``held`` (a
        :class:`FactTxn`'s map) takes the line of every slot the walk
        read, with the store number it was read at.
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
            raw = read(addr(idx), ENTRY)
            fields = _ENTRY.unpack_from(raw)
            _counts, block, _prev, nxt, _delete, entry_fp = fields
            if held is not None:
                held[idx] = (self._flushes, raw, 0)
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
            self.sb.set_iaa_mark(min(slot - slot % _MARK_STEP + _MARK_STEP,
                                     self.daa_size))
        self._write_fields(new_idx, _UC_UNIT, block, hint.tail_idx, -1, fp)
        self.set_delete(block, new_idx)
        self._write_u64(hint.tail_idx, _OFF_NEXT, new_idx + 1)  # publish
        return new_idx

    # ------------------------------------------------------------ counts (UC/RFC)

    def inc_uc(self, idx: int, counts: int, n: int = 1) -> int:
        """Begin ``n`` dedup transactions against this entry (Alg. 1 step
        3), ``UC += n`` in one atomic store.  Returns the word stored."""
        counts += n * _UC_UNIT
        self._write_u64(idx, _OFF_COUNTS, counts)
        return counts

    def commit_uc(self, idx: int, counts: int, n: int = 1) -> bool:
        """``UC -= n, RFC += n`` in one atomic store (Alg. 1 step 6).

        At most UC units settle, so a call is exactly ``n`` calls of one:
        each is a no-op when UC is already 0 — the recovery path re-runs
        commits and counts are fungible across transactions, so skipping
        on zero is exactly the paper's idempotence argument.  Returns
        False when nothing settled.
        """
        n = min(n, counts >> 32)
        if not n:
            return False
        self._write_u64(idx, _OFF_COUNTS, counts + n - n * _UC_UNIT)
        return True

    def dec_rfc(self, idx: int, counts: int, n: int = 1) -> int:
        """``RFC -= n`` in one atomic store (reclaim: ``n`` displaced
        references to the entry's block); returns the new RFC."""
        rfc = counts & _RFC_MASK
        if rfc < n:
            raise FactCorruption(f"FACT[{idx}]: RFC underflow")
        self._write_u64(idx, _OFF_COUNTS, counts - n)
        return rfc - n

    def retire(self, idx: int) -> None:
        """Remove an entry no file references, whatever it counts (§V-C2)."""
        if self.read_counts(idx):
            self._write_u64(idx, _OFF_COUNTS, 0)
        self.remove(idx)

    # ------------------------------------------------------------ retarget

    def retarget_block(self, idx: int, new_block: int,
                       txn: Optional[FactTxn] = None) -> int:
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
        A ``txn`` that planned the old block gives its delete pointer.
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
            pointer = (txn.pointer(old) if txn is not None
                       else self._read_u64(old, _OFF_DELETE))
            if pointer == idx + 1:
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

    def _stored(self, idx: int) -> None:
        """Number the store that flushed slot ``idx``'s line."""
        self._flushes += 1
        self._flushed[idx] = self._flushes

    def _unflushed(self, idx: int, since: int) -> bool:
        """No store has flushed slot ``idx``'s line since ``since`` (a
        value of ``_flushes``): a read of it then is still cached."""
        return self._flushed.get(idx, 0) <= since

    def entry_for_block(self, block: int) -> Optional[FactEntry]:
        """The §IV-C reclaim path for one block: an 8-byte pointer read,
        then the entry it names (none when the pointer is empty)."""
        return FactTxn(self).entry(block)

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
        a = self.addr(block)
        self._touch(block)
        self.dev.write_u32(a + _OFF_WEAK, weak, persist=True)
        self._stored(block)
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
        """All registered (block -> weak) pairs, from the DAA's marked
        chunks (:meth:`_copy`; free inside :meth:`in_dram`): the column
        of block *B* lives in slot *B*, and every block is below 2^n.

        Mount-time rebuild of the DRAM weak index: the caller intersects
        this with the radix-derived set of *live* data blocks, which is
        what makes stale registrations (freed blocks) harmless.
        """
        table = self._dram if self._dram is not None \
            else self._copy(self.daa_size)
        weak = np.frombuffer(table, _SCAN_DTYPE, count=self.daa_size)["weak"]
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
        """Serve the whole-table passes from one read of the table
        (recovery).

        Inside the block, :meth:`_scan` and :meth:`live_entries` decode a
        DRAM copy of the region (:meth:`_copy`) and the three device
        writers (:meth:`_write_fields`, :meth:`_write_u64`,
        :meth:`set_block_weak`) store to both, so a pass sees exactly the
        bytes a re-read would.  Point reads stay device reads; no device
        store moves.
        """
        self._dram = self._copy(self.total)
        try:
            yield
        finally:
            self._dram = None

    def _copy(self, stop: int) -> bytearray:
        """Slots ``[0, stop)`` as a re-read would see them: the chunk map
        (:meth:`chunk_map`), then the DAA's marked chunks (all of it on an
        image without a map) and, past the DAA, ``IAA[:mark]``, one
        request per :func:`neighbourhoods` of them; every other slot is
        zero on the device too."""
        daa = self.daa_size
        words = self.chunk_map()
        if words is None:
            spans = [(0, daa * ENTRY)]
        else:
            size = FACT_CHUNK_SLOTS * ENTRY
            spans = [(c * size, (c + 1) * size) for c in
                     np.flatnonzero(marked_chunks(words, daa)).tolist()]
        if stop > daa and self.iaa_mark:
            spans.append((daa * ENTRY, (daa + self.iaa_mark) * ENTRY))
        copy = bytearray(stop * ENTRY)
        for _first, _last, lo, hi in neighbourhoods(self.dev.model, spans):
            copy[lo:hi] = self.dev.read_view(self.base + lo, hi - lo)
        return copy

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

    def audit(self) -> tuple[dict[int, FactEntry], Callable[[], None],
                             np.ndarray]:
        """An invariant check's one read of the table: its live entries,
        :meth:`check_chains` bound to the same rows — call that after
        the per-entry checks, so they report first — and, per DAA chunk
        of :data:`FACT_CHUNK_SLOTS` slots, whether it holds a non-zero
        byte."""
        arr = self._peek()
        words = arr[:self.daa_size].view("<u8")
        return (self._entries(arr), partial(self._check_chains, arr),
                words.reshape(-1, FACT_CHUNK_SLOTS * ENTRY // 8).any(axis=1))

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
        staged = np.flatnonzero(self._scan("counts")["counts"] >> 32).tolist()
        for idx in staged:
            counts = self.read_counts(idx)
            if counts >> 32:
                self._write_u64(idx, _OFF_COUNTS, counts & _RFC_MASK)
        return len(staged)

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
    """The counts one dedup operation has staged and not yet settled, and
    the FACT words it uses without reading them.

    Algorithm 1's transaction shape, once: stage update counts (the dedup
    daemon then settles its claims, :meth:`settle_claims`), publish the
    operation's log entries by one tail update, then :meth:`commit` — or,
    when it fails before the tail update, :meth:`abort`: §V-C1's discard
    on the live mount instead of at the next recovery.  What is staged is
    a multiset of entries: each entry's staged units settle or drop in
    one store.  As a context manager an exception before the commit
    aborts; a simulated power loss does not (no code runs after a crash;
    what was staged is recovery's).  docs/CONSISTENCY.md §4.

    One map holds what the operation read or stored in each slot, with
    FACT's store number then; :meth:`held` serves it while no store has
    flushed the slot since (docs/CONSISTENCY.md §5): the counts words of
    :meth:`word`, the pointers and entries of :meth:`plan`.
    """

    def __init__(self, fact: FACT):
        self.fact = fact
        self._units: dict[int, int] = {}  # idx -> staged UC, first-staged order
        self._claims: list[int] = []      # entries this operation inserted
        #: slot -> (FACT._flushes when read or stored, the bytes, where
        #: the slot's byte 0 falls in them)
        self._held: dict[int, tuple[int, bytes, int]] = {}

    # ------------------------------------------------------------ held values

    def held(self, slot: int, off: int, n: int) -> Optional[bytes]:
        """Bytes ``[off, off + n)`` of slot ``slot`` as this operation read
        or stored them; None when it holds none, or once any store has
        flushed the slot since (a condition, not an ``assert``)."""
        got = self._held.get(slot)
        if got is None:
            return None
        stamp, raw, at = got
        at += off
        if at < 0 or at + n > len(raw) \
                or not self.fact._unflushed(slot, stamp):
            return None
        return raw[at:at + n]

    def _keep(self, slot: int, raw: bytes, at: int = 0) -> None:
        self._held[slot] = (self.fact._flushes, raw, at)

    def _hold(self, idx: int, counts: int) -> None:
        self._keep(idx, counts.to_bytes(8, "little"))

    def word(self, idx: int) -> int:
        """Entry ``idx``'s counts word: held, else one read, then held."""
        raw = self.held(idx, _OFF_COUNTS, 8)
        if raw is not None:
            return int.from_bytes(raw, "little")
        counts = self.fact.read_counts(idx)
        self._hold(idx, counts)
        return counts

    def plan(self, blocks: Iterable[int]) -> "FactTxn":
        """Read the delete pointers of ``blocks`` up front, one request per
        :func:`neighbourhoods` of their 8 B fields, and hold what each read:
        every pointer in it, and every line it spans whole.  Returns self."""
        fact = self.fact
        todo = sorted(set(blocks))
        spans = [(at, at + 8) for at in
                 (block * ENTRY + _OFF_DELETE for block in todo)]
        for first, last, _lo, _hi in neighbourhoods(fact.dev.model, spans):
            lo, hi = todo[first], todo[last - 1]
            fact.addr(hi)  # the run's last slot is in range
            raw = fact.dev.read(fact.addr(lo) + _OFF_DELETE,
                                (hi - lo) * ENTRY + 8)
            stamp, held = fact._flushes, self._held
            for slot in range(lo, hi + 1):
                held[slot] = (stamp, raw, (slot - lo) * ENTRY - _OFF_DELETE)
        return self

    def pointer(self, block: int) -> int:
        """Block ``block``'s delete pointer (entry index + 1, 0 = none):
        the held one, else a one-block :meth:`plan` (one 8-byte read)."""
        raw = self.held(block, _OFF_DELETE, 8)
        if raw is None:
            raw = self.plan((block,))._held[block][1]
        return int.from_bytes(raw, "little")

    def entry(self, block: int) -> Optional[FactEntry]:
        """Block ``block``'s FACT entry (the held line, else one read);
        None when its pointer is empty or names another block's entry."""
        val = self.pointer(block)
        if not val:
            return None
        idx = val - 1
        raw = self.held(idx, 0, _ENTRY.size)
        if raw is None:
            raw = self.fact.dev.read(self.fact.addr(idx), ENTRY)
            self._keep(idx, raw)
        ent = FACT._decode(idx, raw)
        return ent if ent.valid and ent.block == block else None

    # ------------------------------------------------------------ counts

    def lookup(self, fp: bytes) -> LookupResult:
        """:meth:`FACT.lookup`, holding the line of every slot the walk
        read: a count store on one of them later reads nothing."""
        return self.fact.lookup(fp, self._held)

    def share(self, idx: int, n: int = 1) -> None:
        """Stage ``n`` more references to an existing entry (``UC += n``,
        one store); what it holds of the line stays held, with that word."""
        counts = self.fact.inc_uc(idx, self.word(idx), n)
        _stamp, raw, at = self._held[idx]  # valid: word() served or read it
        self._keep(idx, counts.to_bytes(8, "little") + raw[at + 8:at + ENTRY])
        self._units[idx] = self._units.get(idx, 0) + n

    def claim(self, fp: bytes, block: int,
              hint: Optional[LookupResult] = None) -> Optional[int]:
        """Insert an entry (``UC=1``) for ``block``, a page the operation's
        own file maps.  None when the table is full: nothing was staged."""
        try:
            idx = self.fact.insert(fp, block, hint)
        except FactFull:
            return None
        self._hold(idx, _UC_UNIT)
        self._units[idx] = self._units.get(idx, 0) + 1
        self._claims.append(idx)
        return idx

    def materialise(self, fp: bytes, block: int,
                    hint: Optional[LookupResult] = None) -> Optional[int]:
        """Insert an entry born settled at ``RFC=1``, for a block a file
        already maps (hybrid's lazy canonical), and hold its word: a
        ``share`` of it then reads nothing.  Nothing stays staged, so an
        abort keeps it.  None when the table is full."""
        try:
            idx = self.fact.insert(fp, block, hint)
        except FactFull:
            return None
        self.fact.commit_uc(idx, _UC_UNIT)
        self._hold(idx, 1)
        return idx

    def settle_claims(self) -> None:
        """Settle the claimed units before anything is published: one
        ``UC-1, RFC+1`` store each, in order; the shared units stay
        staged.  For a claim on a page the operation's own committed
        entry already maps (the dedup daemon's), the count is exact at
        once, so no crash or abort after this can leave it uncounted.

        It reads each claim's counts itself, the held-value rule's one
        exception (docs/CONSISTENCY.md §5), and holds the word it stores
        for the commit, like every word held."""
        fact = self.fact
        claims, self._claims = self._claims, []
        for idx in claims:
            counts = fact.read_counts(idx)
            if fact.commit_uc(idx, counts):
                self._hold(idx, counts + 1 - _UC_UNIT)
            self._units[idx] -= 1
            if not self._units[idx]:
                del self._units[idx]

    def commit(self) -> None:
        """Alg. 1 step 6: one ``UC-n, RFC+n`` store per staged entry, in
        the order they were first staged."""
        units, self._units, self._claims = self._units, {}, []
        for idx, n in units.items():
            self.fact.commit_uc(idx, self.word(idx), n)
        self._held = {}

    def abort(self) -> None:
        """Drop exactly the units this transaction staged, newest entry
        first, one store per entry.

        A shared unit is one ``UC -= 1``; a claimed entry nobody else
        counts on is removed.  A claimed entry another transaction has
        shared meanwhile settles instead: its file still maps the page,
        so dropping the unit would let the sharer's commit land on
        ``RFC=1`` for two live references; the aborted operation's re-run
        self-hits with ``RFC >= 1`` and adds nothing.  Safety code: no
        filesystem path reaches it (the daemon settles its claims in the
        critical section that made them, the other clients claim and
        settle in one operation); in the whole suite only three
        ``test_fact_txn.py::TestTwoTransactions`` interleavings do.
        """
        fact = self.fact
        claims = set(self._claims)
        units, self._units, self._claims = self._units, {}, []
        for idx, n in reversed(units.items()):
            claimed = idx in claims
            counts = self.word(idx) - (n - claimed) * _UC_UNIT
            if not claimed:
                fact._write_u64(idx, _OFF_COUNTS, counts)
            elif counts == _UC_UNIT:
                fact.remove(idx)
            else:
                fact._write_u64(idx, _OFF_COUNTS, counts + 1 - _UC_UNIT)
        self._held = {}

    def __enter__(self) -> "FactTxn":
        return self

    def __exit__(self, exc_type, _exc, _tb) -> None:
        if exc_type is not None and not issubclass(exc_type, CrashRequested):
            self.abort()
