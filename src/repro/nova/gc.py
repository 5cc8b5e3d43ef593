"""Thorough log garbage collection.

NOVA has two GC modes: *fast* GC splices out log pages whose entries are
all dead (``NovaFS._maybe_gc_log``); *thorough* GC — this module —
copies the live entries into a fresh, compact chain when dead entries
are scattered across pages fast GC can't reclaim.

Crash consistency without a journal:

1. build the entire new chain on **zeroed** pages, fully persisted,
   unreachable;
2. atomically update the inode's ``log_head`` — the commit point;
3. atomically update ``log_tail``;
4. free the old chain (DRAM-only; recovery recomputes free lists anyway).

A crash between 2 and 3 leaves a tail that points into the *old* chain.
Recovery detects the mismatch (the tail's page is not on the head's
chain) and rebuilds the tail by scanning the new chain for its first
empty slot — well-defined precisely because GC zeroes its fresh pages
(step 1), unlike the normal append path which never needs to.

For file logs the copied set is: every write entry the radix tree still
references, in log order, followed by one fresh :class:`SetattrEntry`
pinning the current size (the dropped entries may have carried the
authoritative ``size_after``).  For directory logs it is one valid
dentry per live name.  Dedupe-flags ride along with their entries; the
filesystem vetoes thorough GC while any entry of the chain still awaits
deduplication (the DWQ holds raw addresses).
"""

from __future__ import annotations

from repro.nova.entries import (
    ENTRY_SIZE,
    DentryEntry,
    SetattrEntry,
    WriteEntry,
    decode_entry,
)
from repro.nova.inode import ITYPE_DIR, ITYPE_FILE
from repro.nova.layout import PAGE_SIZE
from repro.nova.log import ENTRIES_PER_PAGE, LOG_HEADER_SIZE
from repro.nova.radix import FileIndex
from repro.pm.allocator import AllocError

__all__ = ["thorough_gc", "find_tail_by_scan"]


def thorough_gc(fs, ino: int) -> dict:
    """Compact ``ino``'s log; returns a report dict.

    No-op (``{"skipped": reason}``) when the log doesn't exist, the
    dedup layer vetoes it, or nothing would be saved.
    """
    with fs.obs.span("fs.gc", ino=ino):
        return _thorough_gc(fs, ino)


def _thorough_gc(fs, ino: int) -> dict:
    cache = fs.caches[ino]
    head = cache.inode.log_head
    if not head:
        return {"skipped": "no log"}
    old_pages = list(fs.log.iter_pages(head))
    if not fs.thorough_gc_allowed(ino, old_pages):
        return {"skipped": "pending dedup entries"}
    cpu = ino % fs.cpus

    # Collect the live payload.
    payload: list[bytes] = []
    live_write_addrs: list[int] = []
    if cache.inode.itype == ITYPE_FILE:
        for addr, raw in fs.log.iter_slots(head, cache.tail):
            entry = decode_entry(raw)
            if (isinstance(entry, WriteEntry)
                    and cache.index.entry_live_pages(addr) > 0):
                payload.append(raw)
                live_write_addrs.append(addr)
        payload.append(SetattrEntry(
            ino=ino, new_size=cache.inode.size,
            mtime=int(fs.clock.now_ns)).pack())
    elif cache.inode.itype == ITYPE_DIR:
        mtime = int(fs.clock.now_ns)
        for name, child in sorted(cache.dentries.items()):
            payload.append(DentryEntry(name=name, ino=child, valid=1,
                                       mtime=mtime).pack())
    new_page_count = max(1, -(-len(payload) // ENTRIES_PER_PAGE))
    if new_page_count >= len(old_pages):
        return {"skipped": "would not shrink the log"}

    # Step 1: build the new chain, fully persisted, unreachable.
    try:
        new_pages = [fs.allocator.alloc(1, cpu)
                     for _ in range(new_page_count)]
    except AllocError:
        return {"skipped": "no pages for the new chain"}
    for i, page in enumerate(new_pages):
        nxt = new_pages[i + 1] if i + 1 < len(new_pages) else 0
        chunk = payload[i * ENTRIES_PER_PAGE:(i + 1) * ENTRIES_PER_PAGE]
        body = (nxt.to_bytes(8, "little")
                + bytes(LOG_HEADER_SIZE - 8)
                + b"".join(chunk))
        body += bytes(PAGE_SIZE - len(body))  # zeroed free slots
        fs.dev.write(page * PAGE_SIZE, body, nt=True)
    fs.dev.sfence()

    last_used = len(payload) - (len(new_pages) - 1) * ENTRIES_PER_PAGE
    new_tail = (new_pages[-1] * PAGE_SIZE + LOG_HEADER_SIZE
                + last_used * ENTRY_SIZE)

    # Steps 2-3: publish, head first (the commit point), then the tail.
    fs.itable.update_log_head(ino, new_pages[0])
    fs.itable.update_log_tail(ino, new_tail)

    # Step 4: retire the old chain and rebuild the DRAM state.
    for page in old_pages:
        fs.allocator.free(page, 1, cpu)
    cache.inode.log_head = new_pages[0]
    cache.inode.log_tail = new_tail
    cache.tail = new_tail
    cache.invalid_entries = {}
    cache.entry_count = len(payload)
    if cache.inode.itype == ITYPE_FILE:
        index = FileIndex(fs.cpu_model, fs.clock)
        for addr, raw in fs.log.iter_slots(new_pages[0], new_tail):
            entry = decode_entry(raw)
            if isinstance(entry, WriteEntry):
                index.install(addr, entry)
        cache.index = index
    fs._c_log_gced.inc(len(old_pages) - len(new_pages))
    return {
        "old_pages": len(old_pages),
        "new_pages": len(new_pages),
        "live_entries": len(payload),
        "pages_reclaimed": len(old_pages) - len(new_pages),
    }


def find_tail_by_scan(fs, chain: list[int]) -> int:
    """Reconstruct a log tail by scanning a (zero-initialized) chain for
    its first empty slot — the recovery path for a crash between the
    head and tail updates of a thorough GC.  ``chain`` is the pages of
    recovery's bounded walk from the untrusted head."""
    tail = 0
    for page in chain:
        base = page * PAGE_SIZE
        for slot in range(ENTRIES_PER_PAGE):
            addr = base + LOG_HEADER_SIZE + slot * ENTRY_SIZE
            if fs.dev.read(addr, 1)[0] == 0:
                return addr
            tail = addr + ENTRY_SIZE
    return tail
