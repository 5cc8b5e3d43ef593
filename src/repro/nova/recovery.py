"""Mount-time recovery: log replay, orphan GC, free-list rebuild.

NOVA's recovery story (§II-A of the paper): the per-inode logs are the
ground truth.  Recovery scans the inode table, replays each valid inode's
log up to its committed tail to rebuild the DRAM radix trees and sizes,
garbage-collects orphan inodes (valid records no dentry reaches — the
residue of a crash inside create/unlink), builds the in-use page bitmap,
and reconstructs the per-CPU free lists from it.

Any write entry past a tail, any data pages whose entry never committed,
and any half-linked log page are automatically excluded — they were never
visible, so the filesystem state is exactly "the write happened or it
didn't".

Two fast paths layer on top of the full scan:

* **Checkpoint mounts** — a clean unmount persists a checkpoint
  (:mod:`repro.nova.checkpoint`); when it validates, recovery installs
  stub inode caches and the saved free lists without reading a single
  log page.  Logs hydrate lazily (:func:`hydrate_cache`) on first
  access.  A torn or stale checkpoint silently falls back to the scan.
* **Parallel replay** — ``fs.recovery_workers > 1`` shards the log
  replay (and DeNova's flag scan) across a simulated recovery-thread
  pool (:func:`run_recovery_tasks` → :func:`run_sharded`).  Work still
  executes in deterministic order, so the :class:`RecoveryReport` and
  all DRAM state are identical for every worker count; only the charged
  mount latency shrinks.

The DRAM side of a mounted filesystem — :class:`InodeCache` per inode,
held in the lazily hydrating :class:`CacheMap` — is defined here,
because recovery is what builds it.

DeNova layers its own recovery on top via :meth:`NovaFS._post_recover`
(DWQ rebuild, in-process dedup resumption, UC reset, FACT↔bitmap
reconciliation — §V-C).
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

import numpy as np

from repro.nova.checkpoint import load_checkpoint
from repro.nova.entries import (
    DEDUPE_COMPLETE,
    DentryEntry,
    SetattrEntry,
    SymlinkEntry,
    WriteEntry,
    decode_entry,
)
from repro.nova.gc import find_tail_by_scan
from repro.nova.inode import ITYPE_DIR, ITYPE_FILE, ITYPE_SYMLINK, ROOT_INO, Inode
from repro.nova.layout import PAGE_SIZE
from repro.nova.log import LOG_HEADER_SIZE, chain_slots
from repro.nova.radix import FileIndex
from repro.pm.allocator import PageAllocator
from repro.pm.clock import FS_PER_NS

__all__ = ["recover", "RecoveryReport", "hydrate_cache", "InodeCache",
           "CacheMap", "run_recovery_tasks", "run_sharded",
           "simulate_workers"]


@dataclass
class InodeCache:
    """Per-inode DRAM state (what NOVA keeps in its in-memory inode)."""

    inode: Inode
    index: FileIndex
    tail: int = 0                                   # cached log tail addr
    dentries: dict[str, int] = field(default_factory=dict)  # dirs only
    symlink_target: str = ""                        # symlinks only
    entry_count: int = 0                            # committed log entries
    invalid_entries: dict[int, int] = field(default_factory=dict)
    #: log page -> count of dead entries (drives fast GC)
    hydrated: bool = True
    #: False for checkpoint-mount stubs whose log has not been replayed
    #: yet; the index/dentries/symlink_target fields are empty until
    #: :class:`CacheMap` hydrates them on first access.


class CacheMap(dict):
    """``ino -> InodeCache`` map with lazy log hydration.

    A checkpoint mount installs *stub* caches (correct inode metadata,
    empty index/dentries).  Any keyed access replays that inode's log
    on demand; bulk views (``items``/``values``) hydrate everything
    first, so full-scan consumers (fsck, invariant checks, du) keep
    working unchanged.  ``raw_items``/``raw_get`` bypass hydration for
    callers that only need inode metadata (unmount, checkpoint write).
    """

    def __init__(self, fs):
        super().__init__()
        self._fs = fs

    def _hydrate(self, cache: InodeCache) -> InodeCache:
        if not cache.hydrated:
            hydrate_cache(self._fs, cache)
        return cache

    def __getitem__(self, ino: int) -> InodeCache:
        return self._hydrate(super().__getitem__(ino))

    def get(self, ino, default=None):
        cache = super().get(ino)
        if cache is None:
            return default
        return self._hydrate(cache)

    def raw_get(self, ino):
        return super().get(ino)

    def raw_items(self):
        return super().items()

    def hydrate_all(self, flagged: list | None = None) -> None:
        for cache in super().values():
            if not cache.hydrated:
                hydrate_cache(self._fs, cache, flagged)

    def items(self):
        self.hydrate_all()
        return super().items()

    def values(self):
        self.hydrate_all()
        return super().values()


@dataclass
class RecoveryReport:
    clean: bool = False
    inodes_recovered: int = 0
    entries_replayed: int = 0
    orphans_collected: int = 0
    pages_in_use: int = 0
    corrupt_entries_skipped: int = 0
    log_pages: int = 0
    bitmap: np.ndarray | None = None
    #: ``(ino, addr, WriteEntry)`` of each file write entry the replay
    #: found not ``dedupe_complete``; None until one ran (checkpoint stubs).
    flagged: list | None = None
    extra: dict = field(default_factory=dict)  # subclass (dedup) findings


def recover(fs, clean: bool) -> RecoveryReport:
    """Rebuild all DRAM state of ``fs`` from the device.  See module doc.

    Each pass runs under a ``recovery.*`` span, so mount-time cost per
    phase shows up in the metrics registry (``recovery.mount_latency_ns``
    with nested ``recovery.log_replay`` etc.) and in ``repro trace``.
    """
    report = RecoveryReport(clean=clean)
    fs.caches = CacheMap(fs)

    with fs.obs.tracer.use_track("recovery"), \
         fs.obs.span("recovery.mount", clean=clean,
                     workers=getattr(fs, "recovery_workers", 1)):
        if clean and getattr(fs, "use_checkpoint", True):
            ck = load_checkpoint(fs)
            if ck is not None:
                with fs.obs.span("recovery.checkpoint_load",
                                 inodes=len(ck.inodes)):
                    _restore_checkpoint(fs, ck, report)
                _seed_stamps(fs)
                fs._active_checkpoint = ck
                try:
                    with fs.obs.span("recovery.dedup"):
                        fs._post_recover(report, clean)
                finally:
                    fs._active_checkpoint = None
                return report

        with fs.obs.span("recovery.log_replay"):
            chains = _replay_logs(fs, report)
        _seed_stamps(fs)    # before the journal redo stamps its dentries

        # Pass 1.5: redo any committed-but-unapplied journal transaction
        # (cross-directory rename).  This must run before reachability: a
        # crash mid-apply can leave the moved inode referenced by neither
        # directory, and only the journal knows it is still alive.  The
        # redo may append to directory logs, so it needs a safe allocator
        # first — a conservative one that treats every currently-valid
        # inode's pages (orphans included) as in use.  That one scan is
        # then maintained incrementally (redo allocations added, orphan
        # pages removed) instead of being recomputed in pass 3.
        with fs.obs.span("recovery.journal_redo"):
            refs = _build_usage(fs, report, chains)
            fs.allocator = PageAllocator.from_bitmap(
                fs.geo.data_start_page, fs.geo.total_pages, refs > 0,
                fs.cpus)
            fs.allocator.alloc_log = []
            fs.allocator.attach_registry(fs.obs.registry)
            fs.log.allocator = fs.allocator
            report.extra["journal_redone"] = fs.apply_journal()
            if fs.journal.committed:
                fs.journal.clear()
            # Log pages the redo appended are in use now; fold them into
            # the scan so pass 3 sees them without rescanning.
            for ext in fs.allocator.alloc_log:
                for page in range(ext.start, ext.end):
                    refs[page] += 1
                    report.log_pages += 1
            fs.allocator.alloc_log = None

        with fs.obs.span("recovery.reachability"):
            _collect_orphans(fs, report, refs, chains)

        # Pass 3: in-use bitmap -> per-CPU free lists.
        with fs.obs.span("recovery.free_list"):
            bitmap = refs > 0
            fs.allocator = PageAllocator.from_bitmap(
                fs.geo.data_start_page, fs.geo.total_pages, bitmap, fs.cpus)
            fs.allocator.attach_registry(fs.obs.registry)
            fs.log.allocator = fs.allocator
            report.pages_in_use = int(bitmap[fs.geo.data_start_page:].sum())
            report.bitmap = bitmap

        with fs.obs.span("recovery.dedup"):
            fs._post_recover(report, clean)
    return report


def _seed_stamps(fs) -> None:
    """Resume :meth:`NovaFS.stamp` past every mtime the mount found, so
    a stamp never goes back across a remount or a crash."""
    fs._stamp = max((cache.inode.mtime for _ino, cache
                     in fs.caches.raw_items()), default=0)


def _restore_checkpoint(fs, ck, report: RecoveryReport) -> None:
    """Install stub caches and saved free lists from a valid checkpoint."""
    for (ino, itype, flags, links, size, log_head, log_tail,
         mtime) in ck.inodes:
        inode = Inode(ino=ino, valid=1, itype=itype, flags=flags,
                      links=links, size=size, log_head=log_head,
                      log_tail=log_tail, mtime=mtime)
        fs.caches[ino] = InodeCache(
            inode=inode, index=FileIndex(fs.cpu_model, fs.clock),
            tail=log_tail, hydrated=False)
        report.inodes_recovered += 1
    fs.allocator = PageAllocator.from_free_lists(
        fs.geo.data_start_page, fs.geo.total_pages, ck.free_lists, fs.cpus)
    fs.allocator.attach_registry(fs.obs.registry)
    fs.log.allocator = fs.allocator
    report.pages_in_use = (fs.geo.data_pages - fs.allocator.free_pages)
    report.extra["checkpoint"] = {
        "generation": ck.generation,
        "inodes": len(ck.inodes),
        "lazy": True,
    }


def hydrate_cache(fs, cache, flagged: list | None = None) -> None:
    """Replay one stub cache's log on first access (checkpoint mounts).

    The checkpoint already restored the inode's metadata (size, links,
    mtime, committed tail), so the replay only rebuilds the DRAM radix
    tree / dentries / symlink target.  Chain-tail rescue is skipped —
    the checkpoint was written after a clean shutdown, so the recorded
    tail is trusted.
    """
    cache.hydrated = True
    fs._hydrations += 1
    with fs.obs.span("recovery.lazy_hydrate", ino=cache.inode.ino):
        _replay_one(fs, cache, flagged=flagged)


def _replay_one(fs, cache, report: RecoveryReport | None = None,
                flagged: list | None = None) -> list[int] | None:
    """Replay one inode's log into ``cache``; append each write entry a
    dedup pass has still to finish to ``flagged``, decoding the slots from
    the runs of one chain walk (:meth:`LogManager.iter_chain
    <repro.nova.log.LogManager.iter_chain>`).  With a ``report`` (a full
    mount) the tail is untrusted: the whole chain is walked, the tail
    checked against it, and its pages returned."""
    inode = cache.inode
    first_commit_lost = inode.log_head and not inode.log_tail
    if report is not None and first_commit_lost:
        # Crash between log-page allocation and the first commit:
        # the log exists but holds nothing; appends resume at slot 0.
        inode.log_tail = inode.log_head * PAGE_SIZE + LOG_HEADER_SIZE
    chain = fs.log.iter_chain(inode.log_head, inode.log_tail)
    if report is not None:
        chain = list(chain)
        pages = [page for page, _run in chain]
        if not first_commit_lost and inode.log_head \
                and (inode.log_tail - 1) // PAGE_SIZE not in pages:
            # Crash between thorough GC's head and tail updates: the
            # tail still points into the retired chain.  GC chains are
            # zero-initialized, so the first empty slot is the tail.
            inode.log_tail = find_tail_by_scan(chain)
            fs.itable.update_log_tail(inode.ino, inode.log_tail)
            report.extra["gc_tails_rebuilt"] = \
                report.extra.get("gc_tails_rebuilt", 0) + 1
    cache.tail = inode.log_tail
    cache.entry_count = 0
    for addr, raw in chain_slots(chain, inode.log_tail):
        try:
            entry = decode_entry(raw)
        except ValueError:
            if report is not None:
                report.corrupt_entries_skipped += 1
            continue
        if entry is None:
            continue
        if report is not None:
            report.entries_replayed += 1
        cache.entry_count += 1
        if isinstance(entry, WriteEntry) and inode.itype == ITYPE_FILE:
            cache.index.install(addr, entry)
            cache.inode.size = entry.size_after
            cache.inode.mtime = max(cache.inode.mtime, entry.mtime)
            if flagged is not None and entry.dedupe_flag != DEDUPE_COMPLETE:
                flagged.append((inode.ino, addr, entry))
        elif isinstance(entry, SetattrEntry) and inode.itype == ITYPE_FILE:
            keep = (entry.new_size + PAGE_SIZE - 1) // PAGE_SIZE
            cache.index.truncate_pages(keep)
            cache.inode.size = entry.new_size
            cache.inode.mtime = max(cache.inode.mtime, entry.mtime)
        elif isinstance(entry, DentryEntry) and inode.itype == ITYPE_DIR:
            cache.inode.mtime = max(cache.inode.mtime, entry.mtime)
            if entry.valid:
                cache.dentries[entry.name] = entry.ino
            else:
                cache.dentries.pop(entry.name, None)
        elif (isinstance(entry, SymlinkEntry)
                and inode.itype == ITYPE_SYMLINK):
            cache.symlink_target = entry.target
        else:
            if report is not None:
                report.corrupt_entries_skipped += 1
    return pages if report is not None else None


def _replay_logs(fs, report: RecoveryReport) -> dict[int, list[int]]:
    """Pass 1: scan the inode table once, releasing each torn record as
    it is reached, and replay every other valid inode's log through
    :func:`run_recovery_tasks` (``fs.last_replay_pool`` is its report).
    Returns each replayed inode's log chain."""
    chains: dict[int, list[int]] = {}
    released: list[int] = []
    report.flagged = []

    def replay(inode):
        def task():
            cache = InodeCache(inode=inode,
                               index=FileIndex(fs.cpu_model, fs.clock))
            chains[inode.ino] = _replay_one(fs, cache, report,
                                            report.flagged)
            fs.caches[inode.ino] = cache
            report.inodes_recovered += 1
        return task

    # Keyed first: the replay's findings follow it in ``extra``.
    report.extra["corrupt_inodes_released"] = 0
    fs.last_replay_pool = run_recovery_tasks(
        fs, (replay(inode) for inode in fs.itable.iter_valid(released)))
    report.extra["corrupt_inodes_released"] = len(released)
    return chains


def run_recovery_tasks(fs, tasks: Iterable[Callable[[], Any]]
                       ) -> dict | None:
    """Run ``tasks`` in order on ``fs.recovery_workers`` simulated
    recovery threads.

    One worker runs each task as it is drawn, charging the clock
    directly, and returns None.  More run them through
    :func:`run_sharded`: the clock advances by the pool makespan instead
    of the serial sum.  Execution order — and therefore every report
    field and all DRAM state — is the same for every worker count.
    """
    workers = getattr(fs, "recovery_workers", 1)
    if workers <= 1:
        for task in tasks:
            task()
        return None
    return run_sharded(fs.clock, list(tasks), workers)


def simulate_workers(costs: list[int], workers: int) -> dict:
    """Makespan of a work-conserving FIFO pool of ``workers`` over
    ``costs`` (task durations in fs): tasks are handed out in order, each
    to the worker that frees up first.  Returns ``{"makespan": fs,
    "busy": total task fs}``."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    free_at = [0] * min(workers, len(costs))
    for cost in costs:
        heapq.heapreplace(free_at, free_at[0] + cost)
    return {"makespan": max(free_at, default=0), "busy": sum(costs)}


def run_sharded(clock, tasks: Iterable[Callable[[], Any]],
                workers: int) -> dict:
    """Run ``tasks`` in order, charging their combined cost as a pool.

    NOVA recovers per-CPU: each recovery thread replays the inode logs
    that hash to its CPU (PAPER.md §II-A).  Here the replay *work* stays
    sequential — each task executes immediately, so later tasks observe
    earlier tasks' state mutations exactly as in the sequential code
    path — with its simulated cost diverted into a capture.  Afterwards
    the captured per-task costs are scheduled onto ``workers`` FIFO
    workers and the clock advances by the pool's makespan.

    Returns ``{"tasks": n, "busy_ns": total, "makespan_ns": elapsed,
    "workers": workers}``.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    costs: list[int] = []
    for task in tasks:
        with clock.capture() as cap:
            task()
        costs.append(cap.fs)
    pool = simulate_workers(costs, workers)
    if pool["makespan"]:
        clock.sync_to(clock.now_fs + pool["makespan"])
    return {
        "tasks": len(costs),
        "busy_ns": pool["busy"] / FS_PER_NS,
        "makespan_ns": pool["makespan"] / FS_PER_NS,
        "workers": workers,
    }


def _collect_orphans(fs, report: RecoveryReport, refs: np.ndarray,
                     chains: dict[int, list[int]]) -> None:
    """Pass 2: reachability from the root; collect orphans.

    Each orphan takes back exactly the references pass 1.5's usage scan
    counted for it (its replayed chain, walked again only if the journal
    redo grew it), so a page is released only when its last holder
    dies — dedup-shared data stays, and so does a live page that a
    stale ``log_head`` (see :meth:`LogManager.iter_chain
    <repro.nova.log.LogManager.iter_chain>`) merely points into.
    Pass 3 then rebuilds the free lists without a second device scan.
    """
    reachable: set[int] = set()
    stack = [ROOT_INO] if ROOT_INO in fs.caches else []
    while stack:
        ino = stack.pop()
        if ino in reachable:
            continue
        reachable.add(ino)
        cache = fs.caches[ino]
        if cache.inode.itype == ITYPE_DIR:
            stack.extend(i for i in cache.dentries.values()
                         if i in fs.caches)
    for ino in sorted(set(fs.caches) - reachable):
        cache = fs.caches[ino]
        chain = chains[ino]
        if cache.tail and (cache.tail - 1) // PAGE_SIZE not in chain:
            chain = [page for page, _run in        # redo grew it
                     fs.log.iter_chain(cache.inode.log_head, cache.tail)]
        for page in chain:
            refs[page] -= 1
            report.log_pages -= 1
        for page in cache.index.referenced_pages():
            refs[page] -= 1
        fs.itable.release(ino)
        del fs.caches[ino]
        report.orphans_collected += 1
    # Drop dangling dentries (name points at a collected/never-born ino).
    for cache in fs.caches.values():
        if cache.inode.itype == ITYPE_DIR:
            for name in [n for n, i in cache.dentries.items()
                         if i not in fs.caches]:
                del cache.dentries[name]

    # Recompute link counts from the surviving dentries (the hot path
    # never persists them; the namespace is the ground truth).  POSIX:
    # a directory's nlink is 2 ("." plus its parent's entry) plus one
    # ".." back-reference per subdirectory.
    link_counts = Counter(
        child
        for cache in fs.caches.values()
        if cache.inode.itype == ITYPE_DIR
        for child in cache.dentries.values()
    )
    for ino, cache in fs.caches.items():
        if cache.inode.itype == ITYPE_DIR:
            nsubdirs = sum(
                1 for child in cache.dentries.values()
                if (c := fs.caches.raw_get(child)) is not None
                and c.inode.itype == ITYPE_DIR)
            cache.inode.links = 2 + nsubdirs
        else:  # files and symlinks
            cache.inode.links = link_counts.get(ino, 0)


def _build_usage(fs, report: RecoveryReport,
                 chains: dict[int, list[int]]) -> np.ndarray:
    """Per-page reference counts, from the replay's chains and indexes.

    Covers every currently-valid inode, orphans included, one reference
    per log page and per indexed data page alike (a page is in use while
    its count is positive); counts ``report.log_pages`` as it goes.
    """
    refs = np.zeros(fs.geo.total_pages, dtype=np.int32)
    refs[:fs.geo.data_start_page] = 1  # superblock/itable/FACT/etc.
    for ino, cache in fs.caches.items():
        for page in chains[ino]:
            refs[page] += 1
            report.log_pages += 1
        for page in cache.index.referenced_pages():
            refs[page] += 1
    return refs
