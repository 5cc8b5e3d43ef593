"""The Deduplication Daemon — Algorithm 1 of the paper.

The DD dequeues DWQ nodes and deduplicates the data pages of each
referenced write entry:

1.  dequeue the *target entry* (dedupe-flag ``dedupe_needed``; a node
    its write enqueued carries the entry, read only for a node a mount
    restored or rebuilt);
2.  fingerprint each still-live data page and look it up in FACT (the
    live pages are read one device request per contiguous run);
3.  one FACT lookup per distinct fingerprint of the node: duplicates
    stage ``UC += n`` on the canonical entry in one store, ``n`` the
    node's pages that carry it; a unique's first page inserts a new FACT
    entry with ``UC = 1`` and its later copies share it (all on the
    node's ``FactTxn``);
4.  append a new single-page write entry (flag ``in_process``) pointing
    at the canonical page for every duplicate;
5.  one atomic log-tail update commits them all, then the target's flag
    moves to ``in_process`` (a target without duplicates appends nothing
    and skips that store: recovery would have nothing of it to resume,
    and a crash re-runs it from the DWQ);
6.  for every touched FACT entry, one atomic store does ``UC -= n,
    RFC += n`` from the counts word the node's transaction holds (read
    again only once another store has flushed the slot); flags move to
    ``dedupe_complete``; the radix tree is re-pointed and the duplicate
    pages — the node's own, which no FACT entry describes — are freed
    without a delete-pointer read.

A node whose redirect entries find no log page (``NoSpace``) aborts and
goes back on the DWQ, still ``dedupe_needed``, its shared counts dropped.

Deviations needed to make the paper's design executable:

* **Staleness check** — a queued entry may have been overwritten or its
  file deleted before the DD reaches it (offline dedup races foreground
  CoW).  Each page is deduplicated only if the radix tree still maps its
  file offset to this entry; fully-stale nodes are completed and skipped.
* **Self-canonical hits** — a lookup that returns an entry whose block
  *is* the page under process is already accounted for; it is counted
  only if its RFC is 0 (a half-recovered insert).
* **Claims settle in step 3** — a unique page is mapped by the target's
  own committed entry, so its step-6 store runs before anything is
  published.  In the paper's order a crash between step 5's tail update
  and the target's flag resumes the redirects, discards the claim UCs
  and requeues the target, whose re-run self-hits: one reference short.

Reordering (§IV-E) triggers here: a lookup that needed more than
``reorder_min_steps`` NVM reads for an entry with RFC at or above
``reorder_min_rfc`` queues that chain for reordering at the end of the
node (when the commits have settled the RFCs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.dedup.dwq import HINT_REGISTERED, DWQNode
from repro.dedup.fact import FactTxn, LookupResult
from repro.dedup.reorder import reorder_chain
from repro.nova.entries import (
    DEDUPE_COMPLETE,
    DEDUPE_IN_PROCESS,
    DEDUPE_NEEDED,
    WriteEntry,
)
from repro.nova.fs import NoSpace
from repro.nova.layout import PAGE_SIZE
from repro.nova.radix import Displaced, extend_runs

__all__ = ["DedupDaemon", "NodeTask", "append_redirects",
           "complete_redirects"]


def append_redirects(fs, ino: int, cache, runs, cpu: int) -> list[tuple]:
    """Algorithm 1 steps 4–5: the one builder of ``in_process`` redirects.

    One ``in_process`` write entry per ``(pgoff, block, count)`` run,
    stamped with the inode's current size and mtime, all committed by
    one atomic tail update.  The caller settles the counts, then calls
    :func:`complete_redirects`.  Shared by the daemon, the shared-file
    materialiser (reflink, snapshot, ``backup recv``) and the
    reverse-dedup relocator.
    """
    if not runs:
        return []
    appended = fs._append_and_commit(ino, cache, [
        WriteEntry(file_pgoff=pgoff, num_pages=count, block=block,
                   size_after=cache.inode.size, ino=ino,
                   mtime=cache.inode.mtime,
                   dedupe_flag=DEDUPE_IN_PROCESS)
        for pgoff, block, count in runs], cpu)
    for addr, _we in appended:
        fs.note_dedup_pending(addr)
    return appended


def complete_redirects(fs, cache, appended) -> Displaced:
    """Algorithm 1 step 6 after the counts settled: each entry's
    ``dedupe_complete`` store, then the radix repoint.  Returns what the
    entries displaced, joined, for the caller's one retire."""
    for addr, _we in appended:
        fs.set_dedupe_flag(addr, DEDUPE_COMPLETE)
        fs.note_dedup_done(addr)
    index = cache.index
    return Displaced.join(
        index.redirect(we.file_pgoff, addr, we) if we.num_pages == 1
        else index.install(addr, we) for addr, we in appended)


@dataclass
class NodeTask:
    """In-flight Algorithm-1 state for one DWQ node.

    Produced by :meth:`DedupDaemon.validate_node` and threaded through
    the three phases :meth:`DedupDaemon.scan`, :meth:`DedupDaemon.stage`
    and :meth:`DedupDaemon.commit_node` — back to back in the daemon, one
    engine operation each in the concurrent worker pool (``repro.conc``).
    """

    node: "DWQNode"
    entry: "WriteEntry"
    cache: object
    cpu: int
    txn: FactTxn                    # every count this node has staged
    dups: list = field(default_factory=list)   # (pgoff, canonical, 1) runs
    reorder_heads: set = field(default_factory=set)
    weak_of: dict = field(default_factory=dict)  # hybrid: pgoff -> weak fp
    live: Optional[dict] = None  # pgoff -> its 4 KB (None: not read)

    @property
    def page_offsets(self) -> range:
        return range(self.entry.file_pgoff,
                     self.entry.file_pgoff + self.entry.num_pages)


class DedupDaemon:
    """Synchronous Algorithm-1 engine; trigger policy lives in the runner.

    ``DeNova-Immediate`` drains after every write; ``DeNova-Delayed(n,m)``
    drains up to m nodes (``drain(limit=m)``) every n milliseconds — both
    are drive patterns over the same :meth:`process_one`.
    """

    #: §IV-E trigger: a lookup longer than this many NVM reads ...
    reorder_min_steps = 3
    #: ... for an entry with at least this RFC queues its chain.
    reorder_min_rfc = 2

    def __init__(self, fs):
        self.fs = fs
        reg = fs.obs.registry
        self._c_nodes = reg.counter("daemon.nodes_processed_total")
        self._c_nodes_stale = reg.counter("daemon.nodes_stale_total")
        self._c_scanned = reg.counter("daemon.pages_scanned_total")
        self._c_pages_stale = reg.counter("daemon.pages_stale_total")
        self._c_unique = reg.counter("daemon.pages_unique_total")
        self._c_duplicate = reg.counter("daemon.pages_duplicate_total")
        self._c_reclaimed = reg.counter("daemon.pages_reclaimed_total")
        self._c_fact_full = reg.counter("daemon.fact_full_events_total")
        self._c_reorders = reg.counter("daemon.reorders_total")

    # -- drive patterns ------------------------------------------------------

    def process_one(self) -> bool:
        """Dequeue and dedup one node; False when the DWQ is empty."""
        node = self.fs.dwq.dequeue()
        if node is None:
            return False
        self.process_node(node)
        return True

    def drain(self, limit: Optional[int] = None) -> int:
        """Process until the DWQ empties (or ``limit`` nodes)."""
        done = 0
        while (limit is None or done < limit) and self.process_one():
            done += 1
        return done

    # -- Algorithm 1 ------------------------------------------------------------

    def process_node(self, node: DWQNode) -> None:
        # Adopt the enqueuing write's trace so the drain is causally
        # linked to it; trace_id 0 (restored/rebuilt node) starts fresh.
        obs = self.fs.obs
        with obs.tracer.use_trace(node.trace_id):
            with obs.span("dedup.process_node", ino=node.ino):
                self._process_node(node)

    def _process_node(self, node: DWQNode) -> None:
        task, hits = self.scan(node)
        if task is not None:
            self.stage(task, hits)
            self.commit_node(task)

    # -- stages (one engine operation each in the concurrent worker pool) --

    def scan(self, node: DWQNode) -> tuple[Optional[NodeTask], list]:
        """Steps 1–2: the node's task (None: stale) and its ``(pgoff,
        page, fp)`` hits.  Touches no shared FACT state."""
        task = self.validate_node(node)
        if task is None:
            return None, []
        return task, [(pgoff, *hit) for pgoff in task.page_offsets
                      if (hit := self.fingerprint_page(task, pgoff))]

    def stage(self, task: NodeTask, hits: list) -> None:
        """Step 3 for every hit, one fingerprint at a time in the order
        each first occurs: the FACT critical section (the worker pool
        holds its ``fact`` lock across it).  The redirects stay in page
        order.  Its claims settle before it ends: no worker can redirect
        onto an uncounted canonical."""
        pages: dict[bytes, list[tuple[int, int]]] = {}
        for pgoff, page, fp in hits:
            pages.setdefault(fp, []).append((pgoff, page))
        for fp, same in pages.items():
            self.stage_page(task, fp, same)
        task.dups.sort()
        task.txn.settle_claims()

    def validate_node(self, node: DWQNode) -> Optional[NodeTask]:
        """Step 1: reject stale nodes; return the in-flight task if live.

        Stale bookkeeping (counters + ``note_dedup_done``) happens here,
        so a ``None`` return means the node is fully disposed of.
        """
        fs = self.fs
        cache = fs.caches.get(node.ino)
        if cache is None or cache is not node.cache:
            # The file it was queued under was deleted, and maybe its ino
            # reused by a file created since.
            self._c_nodes_stale.inc()
            fs.note_dedup_done(node.entry_addr)
            return None
        entry = node.entry
        if entry is None:
            # Restored or rebuilt at mount: the entry must still decode,
            # be a write entry, carry this ino, and await dedup — anything
            # else is a stale node.
            try:
                entry = fs.read_entry(node.entry_addr)
            except ValueError:
                pass
        if (not isinstance(entry, WriteEntry)
                or entry.ino != node.ino
                or entry.dedupe_flag != DEDUPE_NEEDED):
            self._c_nodes_stale.inc()
            fs.note_dedup_done(node.entry_addr)
            return None
        self._c_nodes.inc()
        return NodeTask(node=node, entry=entry, cache=cache,
                        cpu=node.ino % fs.cpus, txn=FactTxn(fs.fact))

    def fingerprint_page(self, task: NodeTask,
                         pgoff: int) -> Optional[tuple[int, bytes]]:
        """Step 2 for one page: staleness check + hash (the node's first
        call makes every page's check and the chunking read).

        Returns ``(page, fingerprint)`` or ``None`` for a page the
        foreground already overwrote.
        """
        if task.live is None:
            self._read_live(task)
        self._c_scanned.inc()
        if pgoff not in task.live:
            self._c_pages_stale.inc()
            return None
        return self._hash_page(task, pgoff, task.entry.block_for(pgoff))

    def _read_live(self, task: NodeTask) -> None:
        """One radix lookup per page finds the pages still mapped to the
        target; they are read one request per run (a stale or registered
        page ends a run, unread).  The inode is held across the node."""
        addr = task.node.entry_addr
        hints = task.node.weak_hints or {}
        live = task.live = {}
        runs: list[list[int]] = []
        for pgoff in task.page_offsets:
            hit = task.cache.index.lookup(pgoff)
            if hit is None or hit[0] != addr:
                continue
            live[pgoff] = None
            if hints.get(pgoff) != HINT_REGISTERED:
                extend_runs(runs, pgoff, task.entry.block_for(pgoff))
        for first, block, count in runs:
            data = memoryview(self.fs.dev.read(block * PAGE_SIZE,
                                               count * PAGE_SIZE))
            for i in range(count):
                live[first + i] = data[i * PAGE_SIZE:(i + 1) * PAGE_SIZE]

    def _hash_page(self, task: NodeTask, pgoff: int,
                   page: int) -> Optional[tuple[int, bytes]]:
        """The hash step of a live page; None = nothing to stage."""
        return page, self.fs.fingerprinter.strong(task.live[pgoff])

    def stage_page(self, task: NodeTask, fp: bytes,
                   pages: list[tuple[int, int]]) -> None:
        """Step 3 for one fingerprint's ``(pgoff, page)`` hits, in page
        order: one FACT lookup, then one claim or share for them all.
        Under the worker pool's ``fact`` lock (:meth:`stage`), so parallel
        workers cannot double-insert or double-increment a UC."""
        res = task.txn.lookup(fp)
        found = res.found
        if found is None:
            self._stage_miss(task, fp, pages, res)
            return
        if (res.steps > self.reorder_min_steps
                and found.refcount >= self.reorder_min_rfc):
            task.reorder_heads.add(self.fs.fact.head_of(fp))
        shared = 0
        for pgoff, page in pages:
            if found.block != page:
                task.dups.append((pgoff, found.block, 1))
                self._c_duplicate.inc()
                shared += 1
            elif found.refcount == 0:
                # Self-canonical hit: only reachable when re-deduplicating
                # a requeued target (after a crash or an abort — fresh CoW
                # pages can never pre-exist in FACT).  Its claim settled
                # in the first run's stage, so a live page with RFC >= 1
                # needs nothing; RFC == 0 (defensive) is re-staged.
                self._c_unique.inc()
                shared += 1
        if shared:
            task.txn.share(found.idx, n=shared)  # step 3

    def _stage_miss(self, task: NodeTask, fp: bytes,
                    pages: list[tuple[int, int]], res: LookupResult) -> None:
        """No entry carries ``fp``: the first page becomes its canonical
        and the rest share its claim."""
        (_pgoff, page), rest = pages[0], pages[1:]
        idx = task.txn.claim(fp, page, hint=res)
        if idx is None:
            # No metadata room: leave the pages un-deduplicated.
            self._c_fact_full.inc(len(pages))
            return
        self._c_unique.inc()
        if rest:
            task.txn.share(idx, n=len(rest))
            task.dups += [(pgoff, page, 1) for pgoff, _page in rest]
            self._c_duplicate.inc(len(rest))

    def commit_node(self, task: NodeTask) -> None:
        """Steps 4–6: redirect entries, settle counts, reclaim, reorder."""
        fs = self.fs
        fact = fs.fact
        node, cache, cpu = task.node, task.cache, task.cpu

        # Steps 4+5: redirecting entries for the duplicates, one commit.
        try:
            new_entries = append_redirects(fs, node.ino, cache, task.dups,
                                           cpu)
        except NoSpace:
            # Nothing was published: drop the shared counts and requeue
            # the node — its entry is still ``dedupe_needed``.
            task.txn.abort()
            fs.dwq.enqueue(node)
            raise
        if new_entries:
            # Recovery resumes an in_process target from step 6; one
            # without redirects has nothing to resume (its claims settled
            # in ``stage``), and a crash re-runs it from the DWQ.
            fs.set_dedupe_flag(node.entry_addr, DEDUPE_IN_PROCESS)

        # Step 6: settle the shared counts — one atomic store per
        # entry — then complete and repoint the redirects.
        task.txn.commit()
        displaced = complete_redirects(fs, cache, new_entries)
        fs.set_dedupe_flag(node.entry_addr, DEDUPE_COMPLETE)
        fs.note_dedup_done(node.entry_addr)

        # One retire of the now-duplicate pages: the node's own fresh
        # pages, which no FACT entry describes, so they are freed
        # directly, without reading their delete pointers.
        if new_entries:
            fs._retire_displaced(node.ino, cache, displaced, cpu,
                                 mapped=len(new_entries), counted=False)
            self._c_reclaimed.inc(displaced.total_pages)

        # §IV-E: reorder the chains that showed slow lookups.
        for head in task.reorder_heads:
            if reorder_chain(fact, head):
                self._c_reorders.inc()
