"""DeNovaFS: NOVA + offline deduplication (the paper's system).

Integration points with the base filesystem:

* every committed write entry starts with dedupe-flag ``dedupe_needed``
  and is enqueued on the DWQ (``on_write_committed``);
* page reclamation consults FACT through the delete pointer (one NVM
  read per extent, one per entry) and frees a page only when its RFC
  reaches zero (§IV-D3);
* log-page GC is vetoed for pages holding entries still awaiting dedup;
* clean unmount saves the DWQ to PM; unclean mounts run the §V-C
  recovery (:mod:`repro.dedup.recovery`);
* layers above keep crash state of their own in the image and settle it
  through :attr:`DeNovaFS.unclean_mount_hooks`, which they fill at import
  (``repro.backup``: torn ingests; ``repro.repl``: relocation intents);
  they name their counters in :attr:`DeNovaFS.layer_counters` the same way.

The dedup daemon itself is *driven by the caller* (or the DES workload
runner): ``fs.daemon.drain()`` for DeNova-Immediate semantics,
``fs.daemon.drain(limit=m)`` every n ms for DeNova-Delayed(n, m).
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Optional

from repro.dedup import recovery, reflink
from repro.dedup.daemon import DedupDaemon
from repro.dedup.dwq import DWQ, DWQNode
from repro.dedup.fact import FACT, FactTxn
from repro.dedup.fingerprint import Fingerprinter
from repro.nova.entries import DEDUPE_NEEDED, WriteEntry
from repro.nova.fs import NovaFS
from repro.nova.layout import PAGE_SIZE, Superblock
from repro.nova.persist import SweepCursors
from repro.nova.radix import page_refs
from repro.pm.device import PMDevice

__all__ = ["DeNovaFS"]


class DeNovaFS(NovaFS):
    """The DeNova file system (offline dedup, DRAM-free metadata)."""

    #: ``hook(fs, report)`` callables an *unclean* mount runs, in order,
    #: once the filesystem is operable.  Each layer above that keeps
    #: crash state in the image appends its own at import.
    unclean_mount_hooks: tuple = ()
    #: ``hook(fs, name)`` callables run after snapshot ``name`` is deleted.
    snapshot_delete_hooks: tuple = ()
    #: Counters the layers above keep on this filesystem (``backup.*``,
    #: ``repl.*``), appended at import and registered at construction.
    layer_counters: tuple = ()

    def __init__(self, sb: Superblock, cpus: int = 1):
        super().__init__(sb, cpus)
        if not sb.geo.fact_page:
            raise ValueError(
                "DeNovaFS needs a FACT region; format with "
                "DeNovaFS.mkfs(...) or NovaFS.mkfs(..., with_dedup=True)")
        self.fact = FACT(sb, registry=self.obs.registry)
        self.fingerprinter = Fingerprinter(self.cpu_model, self.clock)
        self.dwq = DWQ(self.cpu_model, self.clock, obs=self.obs)
        # Nodes record their owning tenant at enqueue time, while the
        # inode is still alive — the id QoS completion accounting needs
        # after a churn unlink races the queue (see DWQNode.tid).
        self.dwq.tenant_resolver = self.tenants.tenant_of
        self.daemon = DedupDaemon(self)
        self._pending_pages: Counter[int] = Counter()  # log page -> entries
        reg = self.obs.registry
        # Volatile resume points of the budgeted background passes.
        self.cursors = SweepCursors(reg, {
            "scrub": "dedup.scrub_cursor",
            "deep_verify": "dedup.verify_cursor",
            "relocate": "repl.relocate_cursor"})
        self._c_scrub_examined = reg.counter("dedup.scrub_examined_total")
        self._c_scrub_removed = reg.counter(
            "dedup.scrub_entries_removed_total")
        self._c_scrub_freed = reg.counter("dedup.scrub_pages_freed_total")
        self._c_verified = reg.counter("dedup.verify_pages_checked_total")
        # What reclaim did with a page: kept (RFC still > 0), retired its
        # entry (RFC hit zero), freed it (no entry), or deferred (RFC hit
        # zero while a dedup transaction holds a staged UC).
        self._c_shared_keeps = reg.counter("dedup.shared_page_keeps_total")
        self._c_entry_removes = reg.counter("dedup.fact_entry_removes_total")
        self._c_direct_frees = reg.counter("dedup.direct_frees_total")
        self._c_uc_deferred = reg.counter("dedup.uc_deferred_removes_total")
        for name in self.layer_counters:
            reg.counter(name)

    # ------------------------------------------------------------ mkfs/mount

    @classmethod
    def mkfs(cls, dev: PMDevice, max_inodes: int = 1024, cpus: int = 1,
             fact_prefix_bits: Optional[int] = None,
             dwq_save_pages: int = 8, staging_pages: int = 64,
             **_ignored) -> "DeNovaFS":
        return super().mkfs(dev, max_inodes=max_inodes, cpus=cpus,
                            with_dedup=True,
                            fact_prefix_bits=fact_prefix_bits,
                            dwq_save_pages=dwq_save_pages,
                            staging_pages=staging_pages)

    def _post_mkfs(self) -> None:
        self.fact.formatted()

    def _pre_unmount(self) -> None:
        """§IV-B1: on a normal shutdown the DWQ is saved to NVM."""
        self.dwq.save(self.sb)

    def _post_recover(self, report, clean: bool) -> None:
        if clean:
            # The volatile IAA free list is only correct for a fresh
            # FACT; a clean remount must rebuild it (structural_recover
            # does this on the crash path).  With a checkpoint the saved
            # occupancy restores it for free; otherwise one table scan.
            # The chunk map is read here once, so no store of this mount
            # reads it.
            ck = getattr(self, "_active_checkpoint", None)
            with self.obs.span("recovery.fact_iaa_free",
                               from_checkpoint=ck is not None):
                self.fact.chunk_map()
                if ck is not None and ck.iaa_occupied is not None:
                    self.fact.restore_iaa_free(ck.iaa_occupied)
                else:
                    self.fact.rebuild_iaa_free()
            restored = self.dwq.restore(self.sb)
            if restored >= 0:
                for node in self.dwq.snapshot():
                    node.cache = self.caches.raw_get(node.ino)
                    self._pending_pages[node.entry_addr // PAGE_SIZE] += 1
                report.extra["dwq_restored"] = restored
                return
            # The shutdown backlog overflowed the save area: fall through
            # to the crash-style recovery, whose flag scan rebuilds the
            # queue losslessly.
            report.extra["dwq_restored"] = "overflow->scan"
        # Called through its module, where benchmarks/e2e/trace.py wraps it.
        report.extra["dedup"] = recovery.dedup_recover(self, report)

    def _post_mount(self) -> None:
        """After an unclean mount, run :attr:`unclean_mount_hooks`."""
        rep = self.last_recovery
        if rep is None or rep.clean:
            return
        for hook in self.unclean_mount_hooks:
            hook(self, rep)

    # ------------------------------------------------------------ write-path hooks

    def initial_dedupe_flag(self) -> int:
        return DEDUPE_NEEDED

    def on_write_committed(self, ino: int, entry_addr: int,
                           entry: WriteEntry, cpu: int) -> None:
        self._pending_pages[entry_addr // PAGE_SIZE] += 1
        self.dwq.enqueue(DWQNode(ino=ino, entry_addr=entry_addr, entry=entry,
                                 cache=self.caches[ino]))

    def note_dedup_pending(self, entry_addr: int) -> None:
        """An in_process entry exists at this address (daemon bookkeeping)."""
        self._pending_pages[entry_addr // PAGE_SIZE] += 1

    def note_dedup_done(self, entry_addr: int) -> None:
        page = entry_addr // PAGE_SIZE
        if self._pending_pages.get(page, 0) > 0:
            self._pending_pages[page] -= 1
            if not self._pending_pages[page]:
                del self._pending_pages[page]

    def log_page_gc_allowed(self, page: int) -> bool:
        return self._pending_pages.get(page, 0) == 0

    def thorough_gc_allowed(self, ino: int, chain_pages: list[int]) -> bool:
        """Compaction moves entries; raw DWQ addresses must not dangle."""
        return all(self._pending_pages.get(p, 0) == 0 for p in chain_pages)

    # ------------------------------------------------------------ RFC-checked reclaim

    def reclaim_extents(self, extents: Iterable[tuple[int, int]],
                        cpu: int) -> None:
        """§IV-D3: a page is freed only when its reference count is zero.

        First the delete pointers of every page, one NVM read per
        neighbourhood of slots, held in one transaction's map
        (:meth:`~repro.dedup.fact.FactTxn.plan`).  (A dedup node's own
        displaced duplicates never come here: no FACT entry describes
        them, so :meth:`free_extents` frees them without a pointer read.)
        A page displaced ``n`` times (``radix._group`` keeps the
        multiplicity) is settled once, at its last occurrence: the entry
        its pointer names (a read, unless the map holds its whole line;
        none when the block has no entry: a direct free), then one atomic
        ``RFC -= n`` with a cache-line flush, computed from the counts
        word the map holds; when RFC reaches 0 the FACT entry is re-read
        (the flush evicted its line), unlinked (up to three more flushed
        line updates — the Fig. 11 overwrite overhead) and the page
        freed.
        """
        extents = list(extents)
        refs = Counter(page for start, count in extents
                       for page in range(start, start + count))
        left = refs.copy()
        txn = FactTxn(self.fact).plan(refs)
        for start, count in extents:
            run_start = None  # batch contiguous freeable pages
            run_len = 0
            for page in range(start, start + count):
                left[page] -= 1
                freeable = not left[page] and self._release(
                    txn, txn.entry(page), refs[page])
                if freeable:
                    if run_start is None:
                        run_start = page
                        run_len = 1
                    elif page == run_start + run_len:
                        run_len += 1
                    else:
                        self.allocator.free(run_start, run_len, cpu)
                        self._c_reclaimed.inc(run_len)
                        run_start, run_len = page, 1
                elif run_start is not None:
                    self.allocator.free(run_start, run_len, cpu)
                    self._c_reclaimed.inc(run_len)
                    run_start = None
                    run_len = 0
            if run_start is not None:
                self.allocator.free(run_start, run_len, cpu)
                self._c_reclaimed.inc(run_len)

    def free_extents(self, extents, cpu: int) -> None:
        """Free pages no FACT entry describes (each a direct free)."""
        extents = list(extents)
        self._c_direct_frees.inc(sum(count for _start, count in extents))
        super().free_extents(extents, cpu)

    def _release(self, txn: FactTxn, ent, n: int) -> bool:
        """Drop ``n`` references to a displaced page whose entry is
        ``ent`` (None: no entry; ``txn`` read it); True when the page is
        now free.  The reclaim counters count pages: ``n`` displacements
        of a page that stays shared are ``n`` keeps."""
        if ent is None:
            self._c_direct_frees.inc()
            return True
        if self.fact.dec_rfc(ent.idx, txn.word(ent.idx), n):
            self._c_shared_keeps.inc(n)
            return False
        self._c_shared_keeps.inc(n - 1)
        if ent.update_count:
            # A concurrent dedup worker staged a UC on this entry between
            # its lookup and commit: the page is about to gain a
            # reference, so retiring it here would dangle the worker's
            # redirect.  The commit turns the staged UC into RFC = 1; a
            # crashed transaction is settled by recovery's UC discard +
            # dead-entry sweep.
            self._c_uc_deferred.inc()
            return False
        self.fact.remove(ent.idx)
        self._c_entry_removes.inc()
        return True

    # ------------------------------------------------------------ maintenance

    def scrub(self, budget: Optional[int] = None) -> dict:
        """Background FACT↔file reconciliation (§V-C2).

        With ``budget``, examines at most that many FACT entries and
        remembers where it stopped — repeated calls sweep the whole
        table incrementally (RevDedup-style out-of-line batching).
        Without a budget, one call sweeps everything, as before.
        """
        with self.obs.span("dedup.scrub", budget=budget or 0,
                           cursor=self.cursors.get("scrub")):
            out = recovery.scrub(self, budget)
        self._c_scrub_examined.inc(out["examined"])
        self._c_scrub_removed.inc(out["entries_removed"])
        self._c_scrub_freed.inc(out["pages_freed"])
        return out

    def deep_verify(self, budget: Optional[int] = None) -> dict:
        """Fingerprint-verify canonical pages (integrity audit).

        Budgeted and resumable exactly like :meth:`scrub`.
        """
        with self.obs.span("dedup.deep_verify", budget=budget or 0,
                           cursor=self.cursors.get("deep_verify")):
            out = recovery.deep_verify(self, budget)
        self._c_verified.inc(out["checked"])
        return out

    # ------------------------------------------------------------ reflink/snapshots

    def reflink(self, src: str, dst: str, immutable: bool = False) -> int:
        """O(metadata) copy: dst shares every data page of src."""
        self._check_mounted()
        self.clock.advance(self.cpu_model.syscall_ns)
        return reflink.reflink(self, src, dst, immutable=immutable)

    def snapshot(self, name: str) -> dict:
        """Reflink the tree into /.snapshots/<name> (files immutable)."""
        self._check_mounted()
        return reflink.snapshot(self, name)

    def list_snapshots(self) -> list[str]:
        return reflink.list_snapshots(self)

    def delete_snapshot(self, name: str) -> int:
        """Remove snapshot ``name``, then run :attr:`snapshot_delete_hooks`."""
        self._check_mounted()
        out = reflink.delete_snapshot(self, name)
        for hook in self.snapshot_delete_hooks:
            hook(self, name)
        return out

    # ------------------------------------------------------------ reporting

    def space_stats(self) -> dict:
        """Logical vs physical usage — the space-savings headline.

        ``logical_pages`` counts every page reference (snapshot-shared
        pages count once per referencing file, matching how FACT RFCs
        count them); ``physical_pages`` counts distinct blocks.  The
        RFC cross-check: once the DWQ is drained and no dedup is in
        flight, ``logical_pages == rfc_sum + unfingerprinted_refs`` —
        every mapping either contributes to some entry's RFC or points
        at a block with no FACT entry.
        """
        refs = page_refs(self)
        logical_pages = sum(refs.values())
        phys = len(refs)
        live = self.fact.live_entries()
        rfc_sum = sum(e.refcount for e in live.values())
        entry_blocks = {e.block for e in live.values()}
        unfp = set(refs) - entry_blocks
        unfp_refs = sum(refs[b] for b in unfp)
        snapshots = self.list_snapshots()
        snap = (self.du("/.snapshots") if snapshots
                else {"logical_pages": 0, "unique_pages": 0})
        return {
            "logical_pages": logical_pages,
            "physical_pages": phys,
            "logical_bytes": logical_pages * PAGE_SIZE,
            "physical_bytes": phys * PAGE_SIZE,
            "pages_saved": logical_pages - phys,
            "dedup_ratio": logical_pages / phys if phys else 1.0,
            "space_saving": 1 - phys / logical_pages if logical_pages else 0.0,
            "rfc_sum": rfc_sum,
            "unfingerprinted_pages": len(unfp),
            "unfingerprinted_refs": unfp_refs,
            "snapshots": {
                "count": len(snapshots),
                "logical_pages": snap["logical_pages"],
                "unique_pages": snap["unique_pages"],
            },
            "dwq_backlog": len(self.dwq),
            "fact": self.fact.occupancy(),
        }
