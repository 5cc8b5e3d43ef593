"""Inline-deduplication baselines (paper §III / §V "DeNova-Inline").

:class:`InlineDedupFS` performs the full dedup pipeline — chunking,
SHA-1 fingerprinting, FACT lookup, metadata update — *inside the write
path*, the way NVDedup/LO-Dedup do.  It shares FACT and the UC/RFC
consistency scheme with offline DeNova (entries are appended
``in_process`` and completed after the count commits, so the same §V-C
recovery applies), which isolates the experiment variable: *when* the
dedup work happens.

:class:`AdaptiveInlineFS` additionally models NVDedup's
workload-adaptive fingerprinting (Eq. 4): a cheap CRC32 weak fingerprint
always, the expensive SHA-1 only when the weak fingerprint collides —
including the lazy strong-fingerprint generation for previously
weak-only chunks.  Its metadata table is the DRAM index + modelled-NVM
record scheme of NVDedup (costs charged, not crash-consistent; it is a
throughput baseline, which is all the paper uses it for).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional

from repro.dedup.denova import DeNovaFS
from repro.dedup.fact import FactTxn
from repro.nova.entries import DEDUPE_COMPLETE, DEDUPE_IN_PROCESS
from repro.nova.fs import NovaFS, _Placed
from repro.nova.layout import PAGE_SIZE
from repro.nova.radix import extend_runs

__all__ = ["InlineDedupFS", "AdaptiveInlineFS"]


class InlineDedupFS(DeNovaFS):
    """DeNova-Inline: strong-fingerprint dedup in the critical write path.

    The write is :meth:`NovaFS._write_pipeline` with two stages swapped
    in: *place* classifies every page before anything is stored (the
    inline property) and *settle* commits the staged counts.
    """

    variant_name = "DeNova-Inline"

    # benchmarks/e2e/trace.py patches this boundary via vars(InlineDedupFS).
    write = NovaFS.write

    def on_write_committed(self, ino, entry_addr, entry, cpu) -> None:
        """Inline dedup leaves nothing for a background daemon."""

    def initial_dedupe_flag(self) -> int:
        """Entries commit ``in_process``; :meth:`_settle_pages` completes
        them once the counts are in — the §V-C recovery contract."""
        return DEDUPE_IN_PROCESS

    # -- the two pipeline stages ---------------------------------------------

    def _place_pages(self, placed: _Placed, pg_first: int, buf: bytearray,
                     cpu: int) -> None:
        """Duplicate pages are never written — their single-page runs
        point at the canonical pages; uniques are stored one by one,
        coalescing into a run while both the file offset and the device
        page advance by one.  One FACT lookup per distinct fingerprint,
        at its first page, stages the count of every page that carries
        it: a hit shares the entry found, a miss claims the first page
        and its later copies share the claim.  A write's segments share
        one transaction."""
        if placed.txn is None:
            placed.txn = FactTxn(self.fact)
        pages = [bytes(buf[at:at + PAGE_SIZE])
                 for at in range(0, len(buf), PAGE_SIZE)]
        fps = [self.fingerprinter.strong(page) for page in pages]
        copies = Counter(fps)
        canonical: dict[bytes, Optional[int]] = {}  # None: stored as is
        for i, fp in enumerate(fps):
            res = None
            if fp not in canonical:
                res = placed.txn.lookup(fp)
                found = res.found
                if found is not None:
                    placed.txn.share(found.idx, n=copies[fp])
                canonical[fp] = None if found is None else found.block
            block = canonical[fp]
            if block is not None:
                placed.runs.append([pg_first + i, block, 1])
                continue
            block = self._store_page(placed, pages[i], cpu)
            if res is not None:
                # Claim with the miss's lookup as the hint (nothing in
                # between touched the FACT); table full: stored
                # un-deduplicated, and so are its copies.
                idx = placed.txn.claim(fp, block, hint=res)
                if idx is not None:
                    canonical[fp] = block
                    if copies[fp] > 1:
                        placed.txn.share(idx, n=copies[fp] - 1)
            extend_runs(placed.runs, pg_first + i, block)

    def _store_page(self, placed: _Placed, content: bytes, cpu: int) -> int:
        """Allocate and store one unique page; its block."""
        block = self.allocator.alloc(1, cpu)
        placed.fresh.append((block, 1))
        self.dev.write(block * PAGE_SIZE, content, nt=True)
        return block

    def _unplace_pages(self, placed: _Placed, cpu: int) -> None:
        placed.txn.abort()
        super()._unplace_pages(placed, cpu)

    def _settle_pages(self, placed: _Placed, appended: list[tuple]) -> None:
        placed.txn.commit()
        for addr, _entry in appended:
            self.set_dedupe_flag(addr, DEDUPE_COMPLETE)


@dataclass
class _MetaRec:
    """One NVDedup-style metadata record (weak FP, lazy strong FP)."""

    weak: int
    block: int
    strong: Optional[bytes] = None
    rfc: int = 0


class AdaptiveInlineFS(InlineDedupFS):
    """NVDedup's workload-adaptive fingerprinting on the inline path.

    Weak (CRC32) fingerprints always; SHA-1 only on weak collision, with
    lazy strong-fingerprint generation for stored weak-only chunks (the
    stored chunk must be re-read and hashed — those costs are charged).
    Metadata lives in a DRAM index with modelled NVM record writes, as
    NVDedup does; it is not crash-consistent (throughput baseline only).
    """

    variant_name = "DeNova-Inline-Adaptive"

    META_RECORD_BYTES = 64

    def __init__(self, sb, cpus: int = 1):
        super().__init__(sb, cpus)
        self._weak_index: dict[int, list[_MetaRec]] = {}
        self._by_block: dict[int, _MetaRec] = {}
        reg = self.obs.registry
        self._c_weak_hits = reg.counter("adaptive.weak_hits_total")
        self._c_weak_misses = reg.counter("adaptive.weak_misses_total")
        self._c_lazy_strong = reg.counter("adaptive.lazy_strong_total")
        self._c_confirmed = reg.counter("adaptive.confirmed_dups_total")

    def _meta_write_cost(self) -> None:
        """Charge one 64 B NVM metadata record update + flush."""
        self.dev.clock.advance(
            self.dev.model.write_cost(self.META_RECORD_BYTES)
            + self.dev.model.clwb_ns + self.dev.model.sfence_ns)

    def _place_pages(self, placed: _Placed, pg_first: int, buf: bytearray,
                     cpu: int) -> None:
        """Page by page: each is classified against the DRAM index and a
        unique registered at once, so a later identical page of the same
        write deduplicates too."""
        if placed.txn is None:
            placed.txn = FactTxn(self.fact)
        for i in range(len(buf) // PAGE_SIZE):
            pgoff = pg_first + i
            content = bytes(buf[i * PAGE_SIZE:(i + 1) * PAGE_SIZE])
            block, key = self._classify(content)
            if block is not None:
                placed.runs.append([pgoff, block, 1])
                continue
            block = self._store_page(placed, content, cpu)
            self._register_unique(key, block)
            extend_runs(placed.runs, pgoff, block)

    def _classify(self, content: bytes):
        """``(canonical block | None, key for _register_unique)``."""
        weak = self.fingerprinter.weak(content)  # T_fw, always
        candidates = self._weak_index.get(weak)
        if not candidates:
            self._c_weak_misses.inc()
            return None, (weak, None)
        self._c_weak_hits.inc()
        strong = self.fingerprinter.strong(content)  # T_f on collision
        for rec in candidates:
            if rec.strong is None:
                # Lazy strong generation for a weak-only stored chunk.
                stored = self.dev.read(rec.block * PAGE_SIZE, PAGE_SIZE)
                rec.strong = self.fingerprinter.strong(stored)
                self._c_lazy_strong.inc()
                self._meta_write_cost()
            if self.fingerprinter.compare(rec.strong, strong):
                self._c_confirmed.inc()
                rec.rfc += 1
                self._meta_write_cost()
                return rec.block, None
        return None, (weak, strong)

    def _register_unique(self, key, block: int) -> None:
        weak, strong = key
        rec = _MetaRec(weak=weak, block=block, strong=strong, rfc=1)
        self._weak_index.setdefault(weak, []).append(rec)
        self._by_block[block] = rec
        self._meta_write_cost()

    def _unplace_pages(self, placed: _Placed, cpu: int) -> None:
        """Counts settle eagerly in the DRAM table (``placed.txn`` stays
        empty), so un-placing a page *is* dropping a reference."""
        self.reclaim_extents(((b, n) for _pgoff, b, n in placed.runs), cpu)

    def reclaim_extents(self, extents, cpu: int) -> None:
        """Reclaim against the DRAM metadata table instead of FACT."""
        for start, count in extents:
            for page in range(start, start + count):
                rec = self._by_block.get(page)
                if rec is None:
                    self.allocator.free(page, 1, cpu)
                    self._c_reclaimed.inc()
                    continue
                rec.rfc -= 1
                self._meta_write_cost()
                if rec.rfc <= 0:
                    self._weak_index[rec.weak].remove(rec)
                    if not self._weak_index[rec.weak]:
                        del self._weak_index[rec.weak]
                    del self._by_block[page]
                    self.allocator.free(page, 1, cpu)
                    self._c_reclaimed.inc()
                else:
                    self._c_shared_keeps.inc()
