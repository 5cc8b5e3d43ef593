"""Post-recovery consistency invariants.

These encode the paper's consistency claims as executable checks:

* **No dangling data** — every device page a recovered file references is
  marked in-use (never on a free list): the §IV-D3 hazard.
* **No lost free space accounting** — free + referenced + unreferenced
  partitions the data region exactly.
* **Log integrity** — every log chain terminates and every committed
  entry decodes.
* **RFC never undercounts** (DeNova) — a shared page's reference count is
  at least the number of file-page mappings to it.  Overcounting is
  permitted after a crash (§V-C2: "this over-increment does not affect
  the system consistency") — the background scrubber erodes it.
* **UC quiescent** (DeNova) — after recovery completes, every update
  count is zero (Inconsistency Handling II: stale UCs are discarded).
* **FACT chain integrity** (DeNova) — IAA doubly-linked lists are
  mutually consistent, acyclic, and prefix-homogeneous even after a
  crash mid-reorder (Fig. 7).
* **IAA mark** (DeNova) — the superblock's IAA mark lies within the IAA
  and no valid IAA slot sits at or above it (recovery reads none).
* **Inode-table consistency** — every valid on-PM inode record is
  self-consistent (record ino matches its slot, legal itype) and backed
  by a mounted in-DRAM inode; a torn crash inside ``create`` otherwise
  leaks the slot forever (the half-written record is invisible to
  ``iter_valid`` yet still marked valid).
"""

from __future__ import annotations

from collections import Counter

from repro.failure import image
from repro.nova.entries import decode_entry
from repro.nova.inode import ITYPE_DIR, ITYPE_FILE, ITYPE_SYMLINK
from repro.nova.radix import page_refs

__all__ = ["InvariantViolation", "check_fs_invariants"]


class InvariantViolation(AssertionError):
    """A recovered filesystem violated a consistency invariant."""


def _fail(msg: str) -> None:
    raise InvariantViolation(msg)


def check_fs_invariants(fs) -> dict:
    """Run every applicable invariant on a mounted filesystem.

    Returns a small report dict (page reference counts etc.) so tests can
    layer scenario-specific assertions on top.  A violation is recorded
    in the filesystem's flight recorder and triggers a flight dump, so
    the crash report carries the recent event history.
    """
    try:
        return _check_fs_invariants(fs)
    except InvariantViolation as exc:
        fs.obs.flight.record("invariant", message=str(exc))
        # Stashed on the exception so fuzz reports can persist the
        # history even when the fs instance is out of scope.
        exc.flight_dump = fs.obs.flight.dump(reason="invariant")
        raise


def _check_fs_invariants(fs) -> dict:
    refs = page_refs(fs)
    log_pages: set[int] = set()

    log = image.log(fs.dev, fs.geo)
    for ino, cache in fs.caches.items():
        # Log chains terminate and committed entries decode.
        for page in log.iter_pages(cache.inode.log_head):
            if page in log_pages:
                _fail(f"log page {page} shared by two inodes")
            log_pages.add(page)
        for addr, raw in log.iter_slots(cache.inode.log_head,
                                        cache.inode.log_tail):
            try:
                if decode_entry(raw) is None:
                    _fail(f"ino {ino}: committed empty slot at {addr:#x}")
            except ValueError as exc:
                _fail(f"ino {ino}: corrupt committed entry at {addr:#x}: {exc}")
        # Directory entries resolve, and nlink obeys POSIX 2 + nsubdirs.
        if cache.inode.itype == ITYPE_DIR:
            nsubdirs = 0
            for name, child in cache.dentries.items():
                if child not in fs.caches:
                    _fail(f"dangling dentry {name!r} -> ino {child}")
                child_cache = fs.caches.get(child)
                if (child_cache is not None
                        and child_cache.inode.itype == ITYPE_DIR):
                    nsubdirs += 1
            expected = 2 + nsubdirs
            if cache.inode.links != expected:
                _fail(f"dir ino {ino}: nlink={cache.inode.links}, expected "
                      f"{expected} (2 + {nsubdirs} subdirs)")

    data_lo, data_hi = fs.geo.data_start_page, fs.geo.total_pages

    for page in refs:
        if not data_lo <= page < data_hi:
            _fail(f"file data references non-data page {page}")
        if fs.allocator.is_free(page):
            _fail(f"dangling pointer: referenced page {page} is on a "
                  f"free list")
    for page in log_pages:
        if fs.allocator.is_free(page):
            _fail(f"live log page {page} is on a free list")

    used = (data_hi - data_lo) - fs.allocator.free_pages
    live = len(set(refs) | log_pages)
    if live > used:
        _fail(f"accounting: {live} live pages but only {used} marked used")

    report = {"page_refs": refs, "log_pages": log_pages, "used_pages": used}
    report["valid_inode_records"] = _check_itable(fs)

    fact = getattr(fs, "fact", None)
    if fact is not None:
        report["fact"] = _check_fact(fs, fact, refs)
    return report


def _check_itable(fs) -> int:
    """Valid on-PM inode records ⇔ mounted inodes, both directions."""
    valid_inos: set[int] = set()
    for ino, rec in image.inode_records(fs.dev, fs.geo):
        valid_inos.add(ino)
        if rec.ino != ino:
            _fail(f"itable[{ino}]: valid record carries ino {rec.ino} "
                  f"(half-written create leaks the slot)")
        if rec.itype not in (ITYPE_FILE, ITYPE_DIR, ITYPE_SYMLINK):
            _fail(f"itable[{ino}]: valid record has illegal itype "
                  f"{rec.itype}")
        if ino not in fs.caches:
            _fail(f"itable[{ino}]: valid record for an inode the mount "
                  f"does not know (leaked slot)")
    for ino in fs.caches:
        if ino not in valid_inos:
            _fail(f"mounted ino {ino} has no valid inode record")
    return len(valid_inos)


def _check_fact(fs, fact, refs: Counter) -> dict:
    """DeNova-specific invariants over the FACT table (one read of it)."""
    entries, check_chains = fact.audit()
    by_block = {}
    for idx, ent in entries.items():
        if ent.block in by_block:
            _fail(f"two live FACT entries ({by_block[ent.block]} and "
                  f"{idx}) claim block {ent.block}")
        by_block[ent.block] = idx
        if ent.update_count != 0:
            _fail(f"FACT[{idx}]: UC={ent.update_count} after recovery "
                  f"(stale UCs must be discarded)")
        if ent.refcount < 0:
            _fail(f"FACT[{idx}]: negative RFC")

    # RFC never undercounts live references for tracked blocks.
    for block, count in refs.items():
        idx = by_block.get(block)
        if idx is None:
            # Block not (yet) fingerprinted — legal: dedup is offline and
            # the write may still be queued.
            continue
        rfc = entries[idx].refcount
        if rfc < count:
            _fail(f"FACT[{idx}] block {block}: RFC={rfc} undercounts "
                  f"{count} live file references (data-loss hazard)")

    # A live FACT entry whose RFC > 0 must reference an in-use page
    # (otherwise reclaim freed a page the table still exposes as a
    # dedup target -> future writes would alias garbage).
    for idx, ent in entries.items():
        if ent.refcount > 0 and fs.allocator.is_free(ent.block):
            _fail(f"FACT[{idx}]: RFC={ent.refcount} but block "
                  f"{ent.block} is free")

    # No valid IAA slot at or above the persisted IAA mark: recovery and
    # a checkpoint-less mount read nothing past it.
    mark = image.iaa_mark(fs.dev)
    if mark is not None:
        if mark > fact.daa_size:
            _fail(f"IAA mark {mark} exceeds the IAA's {fact.daa_size} slots")
        past = [idx for idx in entries if idx >= fact.daa_size + mark]
        if past:
            _fail(f"FACT[{min(past)}]: valid IAA slot at or above the "
                  f"mark ({mark} slots)")

    check_chains()  # raises InvariantViolation on structural damage
    return {"live_entries": len(entries)}
