"""DeNova crash recovery and the background scrubber (paper §V-C).

Runs after the base NOVA recovery (logs replayed, radix trees rebuilt,
in-use bitmap computed).  Steps 1-6 read FACT from the device once
(:meth:`repro.dedup.fact.FACT.in_dram`); mapped to the paper's handling
cases:

1. **FACT structural repair** — resume/roll back in-flight reorders
   (Fig. 7, :func:`repro.dedup.reorder.recover_reorders`), canonicalize
   links, zero orphan half-inserted slots.
2. **Flag scan** (one pass over all committed write entries):
   ``dedupe_needed`` → re-enqueue on the DWQ (*Inconsistency Handling
   I*); ``in_process`` → resume from Algorithm 1 step 6: commit one UC
   per entry-page through the delete pointer, then mark complete
   (*Handling II*, and *Handling III* falls out — the re-enqueued target
   re-dedups only its unique pages).
3. **Stale-UC discard** — any UC left after resumption belonged to a
   transaction that never reached its tail update; zero them.
4. **Dead-entry removal** — entries with RFC = UC = 0 (half inserts,
   discarded transactions) are unlinked.
5. **Bitmap reconciliation** — a live FACT entry whose block is not
   in use (the free-list rebuild reclaimed it) is invalidated (§V-C2),
   eliminating dangling dedup targets.
6. **Undercount repair** — :func:`_repair_undercounts`.

:func:`scrub` is the paper's background thread: it compares every FACT
entry's RFC against the actual number of live file references and
retires over-counted entries whose files are all gone, reclaiming the
leaked pages.
"""

from __future__ import annotations

from itertools import groupby
from operator import itemgetter

from repro.nova.entries import (
    DEDUPE_IN_PROCESS,
    DEDUPE_NEEDED,
    DEDUPE_COMPLETE,
    WriteEntry,
)
from repro.nova.inode import ITYPE_FILE
from repro.dedup.dwq import DWQNode
from repro.dedup.reorder import recover_reorders
from repro.nova.layout import PAGE_SIZE
from repro.nova.radix import page_refs
from repro.nova.recovery import run_recovery_tasks

__all__ = ["dedup_recover", "scrub", "deep_verify"]


def dedup_recover(fs, report) -> dict:
    """Full §V-C recovery for an uncleanly-mounted DeNovaFS."""
    fact = fs.fact
    out: dict = {}

    # One charged read of the region serves every whole-table pass; the
    # passes stay separate because each acts on what the last one wrote.
    with fact.in_dram():
        # Step 1: structural repair (reorders, orphans, links, freelist).
        with fs.obs.span("recovery.fact_structural"):
            reorders = recover_reorders(fact)
            out["structural"] = {"reorders_recovered": reorders,
                                 **fact.structural_recover()}

        # Step 2: flag scan over the write entries the log replay decoded
        # (an overflowed clean mount's stub hydration collects them here).
        # No log slot of a file changes in between: the journal redo
        # appends only dentries, orphan collection only releases records,
        # step 1 writes only FACT.  Still-cached files keep ino then log
        # order, sharded like the replay (same DWQ for any worker count).
        needed: list[tuple[int, int]] = []
        resumed = [0]
        workers = getattr(fs, "recovery_workers", 1)

        def make_scan(ino, entries):
            def task():
                for _ino, addr, entry in entries:
                    if entry.dedupe_flag == DEDUPE_NEEDED:
                        needed.append((ino, addr))
                    elif entry.dedupe_flag == DEDUPE_IN_PROCESS:
                        _resume_step6(fs, addr, entry)
                        resumed[0] += 1
            return task

        with fs.obs.span("recovery.flag_scan", workers=workers):
            if report.flagged is None:
                report.flagged = []
                fs.caches.hydrate_all(report.flagged)
            files = {ino for ino, cache in fs.caches.raw_items()
                     if cache.inode.itype == ITYPE_FILE}
            by_ino = groupby(sorted(report.flagged, key=itemgetter(0)),
                             itemgetter(0))
            run_recovery_tasks(fs, [make_scan(ino, list(entries))
                                    for ino, entries in by_ino
                                    if ino in files])
        out["in_process_resumed"] = resumed[0]

        # Step 3: discard stale UCs; step 4: drop dead entries.
        out["uc_discarded"] = fact.discard_all_uc()
        out["dead_removed"] = fact.remove_dead()

        # Step 5: FACT entries pointing at pages the free-list rebuild
        # reclaimed are invalidated (over-increment, zero live references).
        stale = 0
        bitmap = report.bitmap
        for idx, ent in sorted(fact.live_entries().items()):
            if bitmap is not None and not bitmap[ent.block]:
                fact.retire(idx)
                stale += 1
        out["stale_entries_invalidated"] = stale

        out["undercounts_repaired"] = _repair_undercounts(fs)

    # Rebuild the DWQ from the dedupe_needed flags (Handling I).
    with fs.obs.span("recovery.dwq_rebuild"):
        fs.dwq.clear()
        fs._pending_pages.clear()
        for ino, addr in needed:
            fs._pending_pages[addr // PAGE_SIZE] += 1
            fs.dwq.enqueue(DWQNode(ino=ino, entry_addr=addr))
    out["dwq_rebuilt"] = len(needed)
    return out


def _repair_undercounts(fs) -> int:
    """Step 6: raise every FACT RFC below its live reference count.

    A crash between a target's tail update and its count commit can
    leave an entry whose RFC misses the target's own (self-canonical)
    reference — with *other* committed references alive, the next
    reclaim would free a shared page (the §IV-D1 data-loss hazard).
    Recovery holds the complete radix state, so it knows the actual
    counts.  Only the undercount direction is repaired: over-increments
    stay, per §V-C2, until the background scrubber erodes them.  Returns
    the entries repaired.
    """
    fact = fs.fact
    refs = page_refs(fs)
    repaired = 0
    for idx, ent in sorted(fact.live_entries().items()):
        actual = refs.get(ent.block, 0)
        if ent.refcount < actual:
            fact.raise_rfc(idx, actual)
            repaired += 1
    return repaired


def _resume_step6(fs, addr: int, entry: WriteEntry) -> None:
    """Complete a dedup transaction from Algorithm 1 step 6.

    For each device page the entry references, reach its FACT entry via
    the delete pointer and commit one staged UC (idempotent: commit_uc
    is a no-op at UC == 0 — counts are fungible across the transactions
    that crashed mid-commit).  Pages without a FACT entry are duplicate
    pages of a target entry; their canonical UCs are committed by the
    corresponding ``in_process`` redirect entries.
    """
    for page in entry.pages():
        ent = fs.fact.entry_for_block(page)
        if ent is not None:
            fs.fact.commit_uc(ent.idx)
    fs.set_dedupe_flag(addr, DEDUPE_COMPLETE)


def deep_verify(fs, budget: int | None = None) -> dict:
    """Integrity audit: every canonical page must match its fingerprint.

    FACT stores the full SHA-1 of each deduplicated block, which makes
    end-to-end verification of shared data free of extra metadata: read
    every live entry's block, re-hash, compare.  A mismatch means the
    media (or a bug) corrupted a page that multiple files may share —
    exactly the blast radius dedup amplifies, hence the audit.

    ``budget`` bounds how many entries one call examines; the next call
    resumes from this one's ``next_cursor`` (a FACT index), so the audit
    can amortize across idle slices instead of stopping the world.

    Returns counts and the list of corrupt (idx, block) pairs.  Cost is
    charged (one page read + one SHA-1 per entry), so callers can also
    use it to budget a background integrity-scrub schedule.
    """
    corrupt: list[tuple[int, int]] = []

    def visit(idx, ent) -> int:
        data = fs.dev.read(ent.block * PAGE_SIZE, PAGE_SIZE)
        if fs.fingerprinter.strong(data) != ent.fp:
            corrupt.append((idx, ent.block))
        return 1

    checked, next_cursor, done = fs.cursors.run(
        "deep_verify", sorted(fs.fact.live_entries().items()), visit, budget)
    return {"checked": checked, "corrupt": corrupt, "clean": not corrupt,
            "examined": checked, "next_cursor": next_cursor, "done": done}


def scrub(fs, budget: int | None = None) -> dict:
    """The §V-C2 background thread: retire FACT entries no file uses.

    Builds the actual reference count per block from every file's radix
    tree, then for each live FACT entry with zero references: removes
    the entry and frees its page if the allocator still considers it in
    use (the over-increment leak).  Over-counted entries that still have
    references are left alone — they converge as references drop.

    Reclaimed pages go back to their *home* CPU's free list (the static
    partition owner) — not CPU 0 — so a large reclaim does not skew the
    per-CPU lists.  ``budget`` bounds and resumes the sweep exactly like
    :func:`deep_verify`.
    """
    refs = page_refs(fs)
    tally = {"entries_removed": 0, "pages_freed": 0,
             "overcounted_remaining": 0}

    def visit(idx, ent) -> int:
        actual = refs.get(ent.block, 0)
        if actual == 0:
            fs.fact.retire(idx)
            tally["entries_removed"] += 1
            if not fs.allocator.is_free(ent.block):
                fs.allocator.free(ent.block, 1,
                                  fs.allocator.home_cpu(ent.block))
                tally["pages_freed"] += 1
        elif ent.refcount > actual:
            tally["overcounted_remaining"] += 1
        return 1

    examined, next_cursor, done = fs.cursors.run(
        "scrub", sorted(fs.fact.live_entries().items()), visit, budget)
    return {**tally, "examined": examined, "next_cursor": next_cursor,
            "done": done}
