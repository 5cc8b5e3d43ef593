"""Out-of-line reverse dedup: keep the newest snapshot sequential.

``repro.backup`` dedups *forward*: the oldest snapshot holding a page
keeps it, and each newer snapshot points backwards, so the newest backup
— the common production restore target — fragments as the chain grows.
RevDedup (Ng/Lee) inverts the indirection: when S_n arrives, pages it
shares with S_{n-1}..S_0 are *relocated* into S_n's sequential layout
and the older snapshots take the fragmentation.  Following the hybrid
inline/out-of-line design (Li/Xu/Ng/Lee), the relocation runs out of
line — a budgeted, resumable pass like ``scrub`` — so ingest throughput
is never taxed.

The move protocol (per file of the newest snapshot)
---------------------------------------------------
1. unless the read planner fetches the whole file with one request
   (docs/CONSISTENCY.md §5), allocate one extent sized to its mapped pages;
2. journal every intended move to ``/.repl/relocate.intent``
   (``[{old, new, idx}]`` — ``idx`` is the page's FACT entry, or None
   for an unfingerprinted page);
3. copy ``old → new``, one read and one nt write per run of moves whose
   old and new pages are both consecutive; then redirect every file
   referencing a moved page — across all snapshots and the live tree —
   with one commit and one retire per referencing inode: the dedup
   daemon's Algorithm-1 pair (``append_redirects`` of its pages as
   runs → ``complete_redirects``) and one dead-entry note;
4. retarget the FACT entry's block field ``old → new`` (one atomic
   store; RFC is untouched — the same references still exist, they just
   point at the new home);
5. free ``old`` directly (never via ``reclaim_extents``: the entry's
   RFC still counts those references) and drop the intent file.

Crash safety: a torn pass leaves the intent journal behind, and
:func:`replay_intents` (run after structural recovery by
:func:`replay_torn_relocation`, an unclean-mount hook registered at
import) drives each half-move to a consistent side.  The decision
procedure is evidence-based, not positional: if no rebuilt index maps
``new``, the move never became visible and is discarded; otherwise the
copy certainly happened (redirects only follow the copy), so the
remaining ``old`` references are redirected, the FACT retargeted, and
``old`` freed.  Every free is guarded with ``allocator.is_free`` —
crash recovery rebuilds the allocator from the index bitmap, so a page
whose references all moved before the crash is already free.

Sharing *within* the newest snapshot is fundamentally
unsequentializable under single-canonical-block dedup: the first file
(in sorted order) to claim a block owns its placement; later
occurrences keep a fragmented reference.  Cross-snapshot sharing — the
RevDedup case — has no such conflict.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

from repro.backup.chain import LAYOUT_REVERSE, chain_table, set_layout
from repro.dedup.daemon import append_redirects, complete_redirects
from repro.dedup.denova import DeNovaFS
from repro.dedup.fact import FactTxn
from repro.dedup.reflink import REPL_DIR, SNAPSHOT_DIR
from repro.nova import persist
from repro.nova.fs import ino_cpu
from repro.nova.inode import ITYPE_FILE
from repro.nova.layout import PAGE_SIZE
from repro.nova.radix import extend_runs
from repro.pm.allocator import AllocError
from repro.pm.plan import neighbourhoods

__all__ = ["INTENT_PATH", "relocate_latest", "replay_intents",
           "replay_torn_relocation", "latest_snapshot"]

INTENT_PATH = f"{REPL_DIR}/relocate.intent"


def latest_snapshot(fs) -> Optional[str]:
    """The chain's newest snapshot: deepest, lexicographic tie-break."""
    rows = chain_table(fs)
    if not rows:
        return None
    return max(rows, key=lambda r: (r["depth"], r["snapshot"]))["snapshot"]


def _block_refs(fs, blocks: set[int]) -> dict[int, list[tuple[int, int]]]:
    """All (ino, pgoff) mappings onto ``blocks``, across every file."""
    refs: dict[int, list[tuple[int, int]]] = {b: [] for b in blocks}
    for ino, cache in fs.caches.items():
        if cache.inode.itype != ITYPE_FILE:
            continue
        for pgoff, _addr, block in cache.index.mappings():
            if block in refs:
                refs[block].append((ino, pgoff))
    return refs


def _redirect_refs(fs, moves: dict[int, int], refs: dict) -> None:
    """Repoint every reference to each moved ``old`` at ``moves[old]``:
    per referencing inode, one ``append_redirects`` of its pages as runs,
    one ``complete_redirects`` and one dead-entry note (one fast-GC walk)
    — no reclaim: the FACT entry the caller retargets still counts them.
    """
    by_ino: dict[int, list[tuple[int, int]]] = {}
    for old, new in moves.items():
        for ino, pgoff in refs[old]:
            by_ino.setdefault(ino, []).append((pgoff, new))
    for ino, pairs in by_ino.items():
        cache = fs.caches[ino]
        runs: list[list[int]] = []
        for pgoff, new in sorted(pairs):
            extend_runs(runs, pgoff, new)
        appended = append_redirects(fs, ino, cache, runs,
                                    ino_cpu(ino, fs.cpus))
        fs._note_dead_entries(cache, complete_redirects(fs, cache, appended))


def _requests(fs, cache) -> int:
    """Device requests a whole read of the file makes: the read planner's
    neighbourhoods of its spans (docs/CONSISTENCY.md §5)."""
    spans = sorted(fs.read_spans(cache, 0, cache.inode.size))
    return sum(1 for _ in neighbourhoods(fs.dev.model, spans))


def _relocate_file(fs, path: str, placed: set[int], tally: Counter) -> int:
    """Sequentialize one file of the newest snapshot (steps 1-5): the
    pages moved (0 also for ENOSPC), counted with a whole read's requests
    before and after into ``tally``.  ``placed`` accumulates blocks this
    pass already assigned a home — first owner wins."""
    ino = fs.lookup(path, follow=False)
    cache = fs.caches[ino]
    before = _requests(fs, cache)
    if before <= 1:
        return 0
    cpu = ino_cpu(ino, fs.cpus)

    # Plan: mapped page i of this file lands at newstart + i; a block
    # seen twice (or owned by an earlier file this pass) moves at most
    # once, and unused slots of the fresh extent are returned.
    blocks = [cache.index.block_of(p) for p in cache.index.mapped_offsets]
    try:
        newstart = fs.allocator.alloc(len(blocks), cpu)
    except AllocError:
        tally["skipped_enospc"] += 1
        return 0
    moves: list[dict] = []    # {"old", "new", "idx"}
    assigned: set[int] = set()
    unused: list[int] = []
    for i, old in enumerate(blocks):
        if old in assigned or old in placed:
            unused.append(newstart + i)
            continue
        assigned.add(old)
        moves.append({"old": old, "new": newstart + i})
    if not moves:
        fs.allocator.free(newstart, len(blocks), cpu)
        return 0
    # The retargets take each old block's pointer from the same
    # transaction: held while no store has flushed its slot.
    txn = FactTxn(fs.fact).plan(assigned)
    for m in moves:
        ent = txn.entry(m["old"])
        m["idx"] = ent.idx if ent is not None else None

    # Journal the whole batch before touching anything (step 2); the
    # file write persists through the normal data path, so a crash
    # mid-journal leaves garbled JSON = a never-started batch.
    persist.write_state(fs, INTENT_PATH, moves, mkparent=True)

    refs = _block_refs(fs, {m["old"] for m in moves})
    runs: list[list[int]] = []      # [old, new, count]: one copy each
    for m in moves:
        extend_runs(runs, m["old"], m["new"])
    for old, new, count in runs:
        fs.dev.write(new * PAGE_SIZE, fs.dev.read(
            old * PAGE_SIZE, count * PAGE_SIZE), nt=True)
    _redirect_refs(fs, {m["old"]: m["new"] for m in moves}, refs)
    for m in moves:
        if m["idx"] is not None:
            fs.fact.retarget_block(m["idx"], m["new"], txn)
        fs.allocator.free(m["old"], 1, cpu)
        placed.add(m["new"])

    for page in unused:
        fs.allocator.free(page, 1, cpu)
    fs.unlink(INTENT_PATH)
    tally["pages_moved"] += len(moves)
    tally["files_moved"] += 1
    tally["requests_before"] += before
    tally["requests_after"] += _requests(fs, cache)
    return len(moves)


def relocate_latest(fs, budget: Optional[int] = None) -> dict:
    """One budgeted reverse-dedup pass over the newest snapshot.

    ``budget`` caps pages moved per call (a file is never split across
    calls — the batch is the crash-atomic unit); the volatile cursor
    resumes the next call where this one stopped, scrub-style.  When the
    pass completes the snapshot's recorded layout flips to ``reverse``
    (if it has chain metadata — local snapshots record none).
    """
    name = latest_snapshot(fs)
    tally = Counter(dict.fromkeys((
        "pages_moved", "files_moved", "skipped_enospc", "requests_before",
        "requests_after"), 0))
    if name is None:
        return {"snapshot": None, "done": True, "files_examined": 0,
                "next_cursor": 0, **tally}
    files = [path for path, _ino, cache in fs.walk(f"{SNAPSHOT_DIR}/{name}")
             if cache.inode.itype == ITYPE_FILE]
    placed: set[int] = set()
    with fs.obs.span("repl.relocate", snapshot=name, budget=budget or 0,
                     cursor=fs.cursors.get("relocate", name)):
        examined, next_cursor, done = fs.cursors.run(
            "relocate", enumerate(files),
            lambda _pos, path: _relocate_file(fs, path, placed, tally),
            budget, tag=name)
    if done:
        set_layout(fs, name, LAYOUT_REVERSE)
    # Local-only chains record no metadata: don't leave an empty /.repl
    # behind once every intent journal is retired.
    persist.prune_dir(fs, REPL_DIR, missing_ok=True)
    reg = fs.obs.registry
    reg.counter("repl.pages_relocated_total").inc(tally["pages_moved"])
    reg.counter("repl.files_sequentialized_total").inc(tally["files_moved"])
    reg.counter("repl.relocate_skipped_enospc_total").inc(
        tally["skipped_enospc"])
    return {"snapshot": name, "done": done, "files_examined": examined,
            "next_cursor": next_cursor, **tally}


def replay_intents(fs) -> int:
    """Settle a torn relocation batch after an unclean mount.

    Runs after structural recovery rebuilt the indexes and allocator.
    Per journaled move, the evidence decides the direction (see module
    docstring); the journal is then dropped.  Returns moves settled
    forward (0 = nothing to do / batch discarded).
    """
    # A torn journal write reads as an empty batch: it never started.
    intents = persist.read_state(fs, INTENT_PATH, list, torn=[])
    if intents is None:
        return 0
    # Garbled entries are never-started batch remnants.
    moves = [m for m in intents
             if isinstance(m, dict) and "old" in m and "new" in m]
    refs = _block_refs(fs, {m[key] for m in moves for key in ("old", "new")})
    # A move no rebuilt index maps ``new`` for never became visible, so
    # recovery's allocator never pinned its new page either.
    forward = [m for m in moves if refs[m["new"]]]
    _redirect_refs(fs, {m["old"]: m["new"] for m in forward}, refs)
    for m in forward:
        old, new, idx = m["old"], m["new"], m.get("idx")
        if idx is not None:
            ent = fs.fact.read_entry(idx)
            if ent.valid and ent.block == old:
                fs.fact.retarget_block(idx, new)
        if not fs.allocator.is_free(old):
            # Still pinned = some reference survived to the rebuild; we
            # just moved it.  All-moved-pre-crash pages were never
            # pinned and are free already.
            fs.allocator.free(old, 1, fs.allocator.home_cpu(old))
    persist.remove_state(fs, INTENT_PATH)
    return len(forward)


def replay_torn_relocation(fs, report) -> None:
    """The unclean-mount hook: settle an interrupted relocation."""
    with fs.obs.span("repl.replay_intents"):
        replayed = replay_intents(fs)
    if replayed:
        fs.obs.registry.counter("repl.intents_replayed_total").inc(replayed)
        report.extra["repl_replay"] = replayed


DeNovaFS.unclean_mount_hooks += (replay_torn_relocation,)
DeNovaFS.layer_counters += (
    "repl.pages_relocated_total", "repl.files_sequentialized_total",
    "repl.relocate_skipped_enospc_total", "repl.intents_replayed_total")
