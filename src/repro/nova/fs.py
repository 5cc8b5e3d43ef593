"""The NOVA file system model.

Implements the full write flow of the paper's Fig. 1:

1. allocate contiguous CoW data pages from the per-CPU free list and fill
   them with user data plus copied head/tail content of partially
   overwritten pages;
2. reserve the log pages the entries will reach, then append a
   ``[file_pgoff, num_pages]`` write entry to the inode log (linking the
   reserved page when the current one is full);
3. commit with an atomic 64-bit log-tail update;
4. update the DRAM radix tree;
5. reclaim the obsolete data pages through the per-CPU free list.

Step 5 goes through the overridable :meth:`NovaFS.reclaim_extents` hook —
DeNova replaces it with the reference-count-checked reclaim of §IV-D3.
Step 3 is followed by the :meth:`NovaFS.on_write_committed` hook, where
DeNova enqueues the DWQ node.

Namespace operations (create/unlink/mkdir/rmdir) are ordered so that a
crash between their two inode updates leaves an *orphan* (a valid inode
no dentry references), which recovery garbage-collects — giving atomic
namespace semantics without a journal.  DESIGN.md documents this
simplification relative to kernel NOVA's per-CPU journal.
"""

from __future__ import annotations

from collections import Counter, deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.nova import recovery
from repro.nova.checkpoint import write_checkpoint
from repro.nova.entries import (
    DEDUPE_COMPLETE,
    DEDUPE_FLAG_OFFSET,
    ENTRY_SIZE,
    DentryEntry,
    SetattrEntry,
    SymlinkEntry,
    WriteEntry,
    decode_entry,
)
from repro.nova.errors import (
    CorruptImage,
    DirectoryNotEmpty,
    FileExists,
    FileNotFound,
    FSError,
    IsADirectory,
    NoSpace,
    NotADirectory,
    ReadOnlyFile,
)
from repro.nova.gc import thorough_gc
from repro.nova.inode import (
    FLAG_IMMUTABLE,
    ITYPE_DIR,
    ITYPE_FILE,
    ITYPE_SYMLINK,
    ROOT_INO,
    Inode,
    InodeTable,
)
from repro.nova.journal import J_ADD, J_REMOVE, Journal, JournalRecord
from repro.nova.layout import PAGE_SIZE, Geometry, Superblock
from repro.nova.log import ENTRIES_PER_PAGE, LogManager
from repro.nova.radix import Displaced, FileIndex, extend_runs
from repro.nova.recovery import CacheMap, InodeCache
from repro.nova.staging import StagingLog
from repro.obs import ObsHub
from repro.pm.allocator import AllocError, PageAllocator
from repro.pm.device import PMDevice
from repro.pm.plan import read_scattered
from repro.tenant.manager import TenantManager

__all__ = ["NovaFS", "FSError", "FileNotFound", "FileExists", "NoSpace",
           "NotADirectory", "IsADirectory", "DirectoryNotEmpty",
           "CorruptImage", "Stat"]


@dataclass(frozen=True)
class Stat:
    ino: int
    itype: int
    size: int
    mtime: int      # a logical stamp (:meth:`NovaFS.stamp`), not a time
    links: int


@dataclass
class _Placed:
    """What the *place* stage of one write did — and a rollback undoes."""

    runs: list = field(default_factory=list)    # [pgoff, block, count]
    fresh: list = field(default_factory=list)   # (block, count) allocated
    txn: object = None      # inline dedup: the FactTxn holding its counts


class NovaFS:
    """User-space NOVA on an emulated PM device."""

    PAGE = PAGE_SIZE

    def __init__(self, sb: Superblock, cpus: int = 1):
        self.sb = sb
        self.dev = dev = sb.dev
        self.geo = geo = sb.geo
        self.cpus = cpus
        self.itable = InodeTable(dev, geo)
        self.journal = Journal(dev, geo)
        self.allocator = PageAllocator(geo.data_start_page, geo.total_pages,
                                       cpus)
        self.log = LogManager(dev, self.allocator, self.itable)
        self.caches: CacheMap = CacheMap(self)
        self.cpu_model = dev.model.cpu
        self.clock = dev.clock
        self.mounted = False
        self.last_recovery = None
        #: Recovery-time knobs (set by :meth:`mount` before recovery runs).
        self.recovery_workers = 1
        self.use_checkpoint = True
        self._active_checkpoint = None  # decoded ckpt during recovery
        self._hydrations = 0
        self._stamp = 0     # the last mtime handed out (:meth:`stamp`)
        # Observability hub: one registry + tracer per fs instance, so a
        # remount starts from zero (DRAM state, like NOVA's in-memory
        # trees).  Each counter is held under its one metric name.
        self.obs = ObsHub(clock=dev.clock)
        reg = self.obs.registry
        self._c_writes = reg.counter("fs.writes_total")
        self._c_reads = reg.counter("fs.reads_total")
        self._c_overwrite_pages = reg.counter("fs.overwrite_pages_total")
        self._c_reclaimed = reg.counter("fs.pages_reclaimed_total")
        self._c_log_gced = reg.counter("fs.log_pages_gced_total")
        self._h_overwrite = reg.histogram(
            "fs.overwrite_latency_ns",
            help="charged simulated ns of writes that displaced pages")
        reg.counter_fn("recovery.lazy_hydrations_total",
                       lambda: self._hydrations,
                       help="inode logs replayed on demand after a "
                            "checkpoint mount")
        self.allocator.attach_registry(reg)
        # Tenant layer: quota enforcement + ownership.  Present whenever
        # the image carved a registry region (old/small images get None
        # semantics through an empty manager — every check is a no-op
        # until a tenant exists).
        self.tenants = TenantManager(self)
        # Front-tier staging log (repro.nova.staging): present whenever
        # the image carved the region; *absorption* is opt-in via
        # :meth:`enable_staging` so default behaviour (and every
        # baseline) is unchanged.  Replay of leftover records at mount
        # happens regardless — durability is not opt-in.
        self.staging = StagingLog(self) if geo.staging_pages else None
        self.staging_enabled = False

    # ------------------------------------------------------------------ lifecycle

    @classmethod
    def mkfs(cls, dev: PMDevice, max_inodes: int = 1024, cpus: int = 1,
             with_dedup: bool = False,
             fact_prefix_bits: Optional[int] = None,
             dwq_save_pages: int = 8,
             staging_pages: int = 64) -> "NovaFS":
        """Format the device and return a mounted, empty filesystem."""
        geo = Geometry.compute(dev.size // PAGE_SIZE, max_inodes,
                               with_dedup=with_dedup,
                               fact_prefix_bits=fact_prefix_bits,
                               dwq_save_pages=dwq_save_pages,
                               staging_pages=staging_pages)
        fs = cls(Superblock.format(dev, geo), cpus)
        root = Inode(ino=ROOT_INO, valid=1, itype=ITYPE_DIR, links=2,
                     mtime=fs.stamp())
        fs.itable.write(ROOT_INO, root)
        fs.caches[ROOT_INO] = InodeCache(
            inode=root, index=FileIndex(fs.cpu_model, fs.clock))
        fs.sb.set_clean(False)
        fs.mounted = True
        fs._post_mkfs()
        fs.tenants.rebuild()
        if fs.staging is not None:
            fs.staging.format()
        return fs

    def _post_mkfs(self) -> None:
        """Subclass hook: initialize extra persistent regions (FACT)."""

    @classmethod
    def mount(cls, dev: PMDevice, cpus: int = 1,
              recovery_workers: Optional[int] = None,
              use_checkpoint: bool = True) -> "NovaFS":
        """Mount an existing filesystem, recovering if it's unclean.

        ``recovery_workers`` shards the log replay across that many
        simulated recovery threads (defaults to ``cpus``, NOVA's per-CPU
        recovery); ``use_checkpoint=False`` forces the full scan even
        when a valid clean-unmount checkpoint exists.
        """
        fs = cls(Superblock.load(dev), cpus)
        fs.recovery_workers = (cpus if recovery_workers is None
                               else max(1, int(recovery_workers)))
        fs.use_checkpoint = bool(use_checkpoint)
        # Called through its module, where benchmarks/e2e/trace.py wraps it.
        fs.last_recovery = recovery.recover(fs, clean=fs.sb.clean)
        fs.sb.bump_epoch()
        fs.sb.set_clean(False)
        fs.mounted = True
        fs._post_mount()
        fs.tenants.rebuild()
        # After the ownership rebuild: replayed writes charge quotas.
        if fs.staging is not None:
            rep = fs.staging.replay()
            # Only reported when the scan found records: clean mounts (and
            # every pre-staging image) keep their RecoveryReport contents —
            # and byte-identical report contracts — unchanged.
            if rep["replayed"] or rep["discarded"]:
                fs.last_recovery.extra["staging"] = rep
        return fs

    def unmount(self) -> None:
        """Clean shutdown: persist lazy state and set the clean flag."""
        self._check_mounted()
        if self.staging is not None:
            # Destage everything before sizes flush and the checkpoint
            # snapshots state — a clean image carries no staged records.
            self.staging.drain_all()
        for ino, cache in self.caches.raw_items():
            # Never-hydrated stubs kept their persisted size from the
            # unmount that wrote the checkpoint — nothing to flush.
            if cache.hydrated and cache.inode.itype == ITYPE_FILE:
                self.itable.update_size(ino, cache.inode.size)
        self._pre_unmount()
        self._pre_clean_unmount()
        self.sb.set_clean(True)
        self.mounted = False

    def _pre_unmount(self) -> None:
        """Subclass hook: save the DWQ etc. before the clean flag."""

    def _pre_clean_unmount(self) -> None:
        """Persist the clean-unmount checkpoint (advisory fast remount).

        Runs after :meth:`_pre_unmount` so the snapshot can embed the
        saved-DWQ length, and before the clean flag so a crash mid-
        checkpoint is just an unclean shutdown with a torn (ignored)
        checkpoint.
        """
        self.obs.flight.record("persist", what="checkpoint",
                               pages=self.geo.ckpt_pages)
        with self.obs.span("recovery.checkpoint_write",
                           pages=self.geo.ckpt_pages):
            write_checkpoint(self)

    def stamp(self) -> int:
        """The next mtime: a logical counter, +1 per stamping operation,
        that mount resumes past every mtime it found.  No charge moves it."""
        self._stamp += 1
        return self._stamp

    def _check_mounted(self) -> None:
        if not self.mounted:
            raise FSError("filesystem is not mounted")

    # ------------------------------------------------------------------ staging

    def enable_staging(self) -> None:
        """Absorb sync writes of at most a page into the staging log (one
        fence on the critical path; background destage)."""
        if self.staging is None:
            raise FSError("image has no staging region (device too small "
                          "or formatted with staging_pages=0)")
        self.staging_enabled = True

    # ------------------------------------------------------------------ namei

    MAX_SYMLINK_DEPTH = 8

    def _resolve(self, path: str, follow_final: bool) -> tuple[int, str]:
        """Walk ``path``, expanding symlinks; returns (parent ino, name).

        Intermediate symlinks are always followed; the final component
        is expanded only when ``follow_final`` (lookup/read paths yes,
        create/unlink/readlink no).  Returns ``(ROOT_INO, "")`` for the
        root itself.
        """
        parts = deque(p for p in path.split("/") if p)
        if not parts:
            return ROOT_INO, ""
        cur = ROOT_INO
        hops = 0
        while parts:
            comp = parts.popleft()
            cache = self.caches[cur]
            if cache.inode.itype != ITYPE_DIR:
                raise NotADirectory(f"{comp!r} lookup under non-directory")
            self.clock.advance(self.cpu_model.dram_touch_ns)
            child = cache.dentries.get(comp)
            is_final = not parts
            if child is not None:
                child_cache = self.caches.get(child)
                if (child_cache is not None
                        and child_cache.inode.itype == ITYPE_SYMLINK
                        and (not is_final or follow_final)):
                    hops += 1
                    if hops > self.MAX_SYMLINK_DEPTH:
                        raise FSError(
                            f"too many levels of symbolic links: {path!r}")
                    target = child_cache.symlink_target
                    tparts = [p for p in target.split("/") if p]
                    if target.startswith("/"):
                        cur = ROOT_INO
                    parts.extendleft(reversed(tparts))
                    continue
            if is_final:
                return cur, comp
            if child is None:
                raise FileNotFound(f"no such directory: {comp!r} in {path!r}")
            cur = child
        return ROOT_INO, ""

    def _namei(self, path: str) -> tuple[int, str, InodeCache]:
        """Resolve ``path`` to (parent ino, leaf name, parent cache)."""
        pino, name = self._resolve(path, follow_final=False)
        if not name:
            raise FSError("empty path")
        parent = self.caches[pino]
        if parent.inode.itype != ITYPE_DIR:
            raise NotADirectory(f"parent of {name!r} is not a directory")
        return pino, name, parent

    def lookup(self, path: str, follow: bool = True) -> int:
        """Resolve a path to an inode number (following symlinks)."""
        self._check_mounted()
        self.clock.advance(self.cpu_model.syscall_ns)
        pino, name = self._resolve(path, follow_final=follow)
        if not name:
            return ROOT_INO
        self.clock.advance(self.cpu_model.dram_touch_ns)
        ino = self.caches[pino].dentries.get(name)
        if ino is None:
            raise FileNotFound(path)
        return ino

    def symlink(self, target: str, linkpath: str) -> int:
        """Create a symbolic link (targets limited to 40 bytes)."""
        return self._make(linkpath, ITYPE_SYMLINK, target)

    def readlink(self, path: str) -> str:
        """The target of a symlink (never follows the final component)."""
        self._check_mounted()
        self.clock.advance(self.cpu_model.syscall_ns)
        ino = self.lookup(path, follow=False)
        cache = self.caches[ino]
        if cache.inode.itype != ITYPE_SYMLINK:
            raise FSError(f"{path!r} is not a symlink")
        return cache.symlink_target

    def exists(self, path: str) -> bool:
        """Whether ``path`` resolves; an unmounted filesystem raises."""
        self._check_mounted()
        try:
            self.lookup(path)
            return True
        except FSError:
            return False

    # ------------------------------------------------------------------ namespace ops

    def _append_dentry(self, parent_ino: int, name: str, ino: int,
                       valid: int, cpu: int, res: Optional[list] = None
                       ) -> None:
        parent = self.caches[parent_ino]
        entry = DentryEntry(name=name, ino=ino, valid=valid,
                            mtime=self.stamp())
        self._append_and_commit(parent_ino, parent, [entry], cpu, res)
        parent.inode.mtime = entry.mtime
        self.clock.advance(self.cpu_model.dram_touch_ns)
        if valid:
            changed = parent.dentries.get(name) != ino
            parent.dentries[name] = ino
        else:
            changed = parent.dentries.pop(name, None) is not None
        # POSIX nlink: a directory holds 2 + one link per subdirectory
        # (each child's ".." back-reference).  Maintained here — the one
        # point every namespace op and the journal redo funnel through.
        child = self.caches.raw_get(ino)
        if (changed and child is not None
                and child.inode.itype == ITYPE_DIR):
            parent.inode.links += 1 if valid else -1

    @contextmanager
    def _reserved(self, *logs):
        """:meth:`LogManager.reserve` per ``(cache, n, cpu)`` (``cache``
        None: a new log) before the block's first store; the pages no
        append reached go back when it ends, so a refusal in it (inode
        table, quota) leaves the allocator as it found it."""
        held = []
        try:
            for cache, n, cpu in logs:
                held.append(self.log.reserve(
                    cache.inode.log_head if cache else 0,
                    cache.tail if cache else 0, n, cpu))
            yield held
        finally:
            for res, (_cache, _n, cpu) in zip(held, logs):
                self.log.release(res, cpu)

    def _link_ahead(self, ino: int, cache: InodeCache, res: list) -> None:
        """Link the first page of ``res`` if the next append needs it: a
        new log's first page, or the next one past a full page."""
        if not cache.inode.log_head:
            cache.inode.log_head, cache.tail = self.log.ensure_log(ino, 0,
                                                                   res)
        elif cache.tail % PAGE_SIZE == 0:
            cache.tail = self.log.next_page(cache.tail, res)

    def _append_and_commit(self, ino: int, cache: InodeCache,
                           entries: list, cpu: int,
                           res: Optional[list] = None) -> list[tuple]:
        """The one log-commit primitive: N appends, one atomic tail update.

        Returns ``[(addr, entry)]``.  The log pages the appends reach are
        ``res``, taken by the caller before its first store, or reserved
        here: a page that cannot be had raises :class:`NoSpace` before
        any entry is stored, with the committed tail (and the DRAM cache)
        untouched.
        """
        if res is None:
            res = self.log.reserve(cache.inode.log_head, cache.tail,
                                   len(entries), cpu)
        self._link_ahead(ino, cache, res)
        tail = cache.tail
        appended = []
        for entry in entries:
            addr, tail = self.log.append(ino, tail, entry.pack(), res)
            appended.append((addr, entry))
        self.log.commit(ino, tail)
        cache.tail = tail
        cache.inode.log_tail = tail
        cache.entry_count += len(appended)
        return appended

    def _new_inode(self, itype: int, cpu: int,
                   parent: Optional[int] = None) -> int:
        # Quota check before the inode-table slot is taken; ownership is
        # inherited from the parent directory after it is.
        if parent is not None:
            self.tenants.check_inode(parent)
        try:
            ino = self.itable.alloc()
        except RuntimeError as exc:
            raise NoSpace(str(exc)) from None
        self.itable.write(ino, self._open_inode(ino, itype, parent))
        return ino

    def _open_inode(self, ino: int, itype: int,
                    parent: Optional[int]) -> Inode:
        """A new valid inode in slot ``ino``, cached and owned as
        ``parent`` is (None: by nobody); the caller persists it."""
        inode = Inode(ino=ino, valid=1, itype=itype,
                      links=2 if itype == ITYPE_DIR else 1,
                      mtime=self.stamp())
        self.caches[ino] = InodeCache(
            inode=inode, index=FileIndex(self.cpu_model, self.clock))
        if parent is not None:
            self.tenants.note_inode(ino, parent)
        return inode

    def create(self, path: str) -> int:
        """Create an empty regular file; returns its ino."""
        return self._make(path, ITYPE_FILE, None)

    def _make(self, path: str, itype: int, target: Optional[str]) -> int:
        """create, mkdir and symlink (``target`` set): a valid inode, then
        the dentry that publishes it (a crash in between leaves an orphan
        inode that recovery collects), every log page taken first."""
        self._check_mounted()
        self.clock.advance(self.cpu_model.syscall_ns)
        pino, name, parent = self._namei(path)
        if name in parent.dentries:
            raise FileExists(path)
        st = self.staging
        if itype == ITYPE_FILE and st is not None and self.staging_enabled \
                and not st.active:
            ino = self._staged_create(pino, name)
            if ino is not None:
                return ino
        cpu = ino_cpu(pino, self.cpus)
        # A symlink's own first log page, then the parent's next: the
        # order they are allocated in.
        own = [] if target is None else [(None, 1, cpu)]
        with self._reserved(*own, (parent, 1, cpu)) as held:
            ino = self._new_inode(itype, cpu, parent=pino)
            if own:
                cache = self.caches[ino]
                self._append_and_commit(ino, cache, [SymlinkEntry(
                    target=target, ino=ino, mtime=self.stamp())], cpu,
                    held[0])
                cache.symlink_target = target
            self._append_dentry(pino, name, ino, valid=1, cpu=cpu,
                                res=held[-1])
        return ino

    def _staged_create(self, pino: int, name: str) -> Optional[int]:
        """Absorb a file create into the staging log (None = fall back).

        The staged record is the commit point; everything else here is
        DRAM.  The inode-table slot stays invalid until destage, so a
        crashed staged create leaves nothing for orphan collection — the
        replay re-creates the file (same ino) or, if the record is torn,
        the create simply never happened.
        """
        st = self.staging
        self.tenants.check_inode(pino)
        try:
            ino = self.itable.alloc()
        except RuntimeError as exc:
            raise NoSpace(str(exc)) from None
        if not st.try_stage_create(pino, name, ino):
            self.itable.unreserve(ino)
            return None
        self._open_inode(ino, ITYPE_FILE, pino)
        self.clock.advance(self.cpu_model.dram_touch_ns)
        self.caches[pino].dentries[name] = ino
        return ino

    def _destage_create(self, parent_ino: int, name: str, ino: int,
                        cpu: int) -> None:
        """Persist a staged create: inode record, then the dentry."""
        cache = self.caches[ino]
        self.itable.write(ino, cache.inode)
        self._append_dentry(parent_ino, name, ino, valid=1, cpu=cpu)

    def _replay_create(self, parent_ino: int, name: str,
                       ino: int) -> bool:
        """Re-apply a staged create at mount.  False = discard.

        Idempotent against a crash mid-destage: if the dentry already
        resolves to ``ino`` (destage completed before the watermark
        persisted) there is nothing to do; if destage persisted only the
        inode, orphan collection already reclaimed it and the create
        runs from scratch with the recorded ino.
        """
        parent = self.caches.get(parent_ino)
        if parent is None or parent.inode.itype != ITYPE_DIR:
            return False
        existing = parent.dentries.get(name)
        if existing is not None:
            return existing == ino
        try:
            self.itable.claim(ino)
        except RuntimeError:
            return False
        self._open_inode(ino, ITYPE_FILE, parent_ino)
        self._destage_create(parent_ino, name, ino,
                             ino_cpu(parent_ino, self.cpus))
        return True

    def mkdir(self, path: str) -> int:
        return self._make(path, ITYPE_DIR, None)

    def listdir(self, path: str) -> list[str]:
        self._check_mounted()
        self.clock.advance(self.cpu_model.syscall_ns)
        ino = self.lookup(path)
        cache = self.caches[ino]
        if cache.inode.itype != ITYPE_DIR:
            raise NotADirectory(path)
        return sorted(cache.dentries)

    def unlink(self, path: str) -> None:
        """Remove one name; the file body goes when the last link does."""
        self._check_mounted()
        self.clock.advance(self.cpu_model.syscall_ns)
        pino, name, parent = self._namei(path)
        ino = parent.dentries.get(name)
        if ino is None:
            raise FileNotFound(path)
        cache = self.caches[ino]
        if cache.inode.itype == ITYPE_DIR:
            raise IsADirectory(path)
        cpu = ino_cpu(ino, self.cpus)
        res = self.log.reserve(parent.inode.log_head, parent.tail, 1, cpu)
        if self.staging is not None and cache.inode.links == 1 \
                and self.staging.has_pending_create(ino):
            # The file only ever existed in the staging log.  Discard —
            # persisting the watermark or, when another inode's pending
            # record shares the slab, per-record tombstones — *before*
            # the dentry-remove commits: a crash after the invalidation
            # observes "unlinked" (this op completed), a crash before it
            # observes the file (this op never started).  Discarding
            # after the commit would leave a window where replay
            # resurrects the file — and an unlink refused after the
            # discard would lose it, so the parent's log page is
            # reserved first.
            self.staging.discard_ino(ino)
        # 1. Unpublish the name (the commit point of the unlink).
        self._append_dentry(pino, name, ino, valid=0, cpu=cpu, res=res)
        cache.inode.links -= 1
        if cache.inode.links > 0:
            return  # other hard links keep the body alive
        # 2. Free the file body through the reclaim hook (RFC-aware in
        #    DeNova), then its log pages, then the inode record.
        self._drop_file_body(ino, cache, cpu)

    def link(self, existing: str, newpath: str) -> None:
        """Create a hard link (files only, as in POSIX/NOVA).

        Links may not cross a tenant boundary (tenant↔tenant or
        tenant↔outside): the inode keeps one owner for quota charging,
        and a link reachable from two subtrees would make the mount-time
        ownership rebuild disagree with the live assignment — EXDEV-like
        semantics, as if each tenant root were its own filesystem.
        Within one tenant a link adds no inode and no pages, so no quota
        check applies.
        """
        self._check_mounted()
        self.clock.advance(self.cpu_model.syscall_ns)
        ino = self.lookup(existing)
        cache = self.caches[ino]
        if cache.inode.itype != ITYPE_FILE:
            raise IsADirectory(existing)
        pino, name, parent = self._namei(newpath)
        if name in parent.dentries:
            raise FileExists(newpath)
        self._check_new_name(ino, pino, "hard link", "links", existing,
                             newpath)
        self._append_dentry(pino, name, ino, valid=1,
                            cpu=ino_cpu(pino, self.cpus))
        cache.inode.links += 1

    def rename(self, src: str, dst: str) -> None:
        """Atomically move ``src`` to ``dst`` (dst must not exist).

        Same-directory renames commit both dentry records with one log
        tail update; cross-directory renames go through the redo journal
        (§ :mod:`repro.nova.journal`), whose committed flag is the
        linearization point.

        Renames may not cross a tenant boundary (same EXDEV-like contract
        as :meth:`link`): the inode's quota charge stays with its owner,
        so moving it (or a whole subtree) under another tenant root would
        make the mount-time ownership rebuild disagree with the live
        accounting.
        """
        self._check_mounted()
        self.clock.advance(self.cpu_model.syscall_ns)
        spino, sname, sparent = self._namei(src)
        ino = sparent.dentries.get(sname)
        if ino is None:
            raise FileNotFound(src)
        dpino, dname, dparent = self._namei(dst)
        if dname in dparent.dentries:
            raise FileExists(dst)
        if self.caches[ino].inode.itype == ITYPE_DIR:
            if ino == dpino or self._is_ancestor(ino, dpino):
                raise FSError(f"cannot move {src!r} into its own subtree")
        self._check_new_name(ino, dpino, "rename", "renames", src, dst)
        cpu = ino_cpu(dpino, self.cpus)
        if spino == dpino:
            # One directory log: two appends, one atomic tail commit.
            parent = self.caches[spino]
            mtime = self.stamp()
            self._append_and_commit(spino, parent, [
                DentryEntry(name=dname, ino=ino, valid=1, mtime=mtime),
                DentryEntry(name=sname, ino=ino, valid=0, mtime=mtime),
            ], cpu)
            parent.inode.mtime = mtime
            self.clock.advance(2 * self.cpu_model.dram_touch_ns)
            parent.dentries[dname] = ino
            parent.dentries.pop(sname, None)
            return
        # A committed journal must be appliable, live and at recovery: both
        # logs' pages are linked before it commits.
        with self._reserved((dparent, 1, cpu),
                            (sparent, 1, ino_cpu(spino, self.cpus))
                            ) as (dres, sres):
            self._link_ahead(dpino, dparent, dres)
            self._link_ahead(spino, sparent, sres)
        self.journal.stage([
            JournalRecord(op=J_ADD, parent_ino=dpino, name=dname, ino=ino),
            JournalRecord(op=J_REMOVE, parent_ino=spino, name=sname,
                          ino=ino),
        ])
        self.apply_journal()
        self.journal.clear()

    def _check_new_name(self, ino: int, pino: int, what: str, whats: str,
                        src: str, dst: str) -> None:
        """Before :meth:`link`/:meth:`rename` name ``ino`` under ``pino``:
        refuse a tenant root crossing; persist a staged create of ``ino``
        (the new dentries need its record, and it would replay there)."""
        if self.tenants.tenant_of(ino) != self.tenants.tenant_of(pino):
            raise FSError(
                f"cross-tenant {what}: {src!r} -> {dst!r} "
                f"({whats} may not cross a tenant root)")
        if self.staging is not None \
                and self.staging.has_pending_create(ino):
            self.staging.drain_ino(ino)

    def apply_journal(self) -> int:
        """Apply (or redo) the committed journal records, idempotently."""
        applied = 0
        for rec in self.journal.records():
            parent = self.caches.get(rec.parent_ino)
            if parent is None or parent.inode.itype != ITYPE_DIR:
                continue  # directory vanished: nothing to redo into
            cpu = ino_cpu(rec.parent_ino, self.cpus)
            if rec.op == J_ADD:
                if (parent.dentries.get(rec.name) != rec.ino
                        and rec.ino in self.caches):
                    self._append_dentry(rec.parent_ino, rec.name, rec.ino,
                                        valid=1, cpu=cpu)
                    applied += 1
            elif rec.op == J_REMOVE:
                if rec.name in parent.dentries:
                    self._append_dentry(rec.parent_ino, rec.name, rec.ino,
                                        valid=0, cpu=cpu)
                    applied += 1
        return applied

    def _is_ancestor(self, maybe_ancestor: int, ino: int) -> bool:
        """True if ``maybe_ancestor`` sits on ``ino``'s path to the root:
        a search down its subtree, hydrating only that subtree's dirs."""
        stack = [maybe_ancestor]
        seen = set()
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            for child in self.caches[cur].dentries.values():
                if child == ino:
                    return True
                stub = self.caches.raw_get(child)
                if stub is not None and stub.inode.itype == ITYPE_DIR:
                    stack.append(child)
        return False

    def _drop_file_body(self, ino: int, cache: InodeCache, cpu: int) -> None:
        if self.staging is not None:
            # The body is going away with its last link — destaging the
            # records would only write pages we free on the next line.
            self.staging.discard_ino(ino)
        # The log dies with the body: no point tracking its dead entries.
        self._retire_displaced(ino, cache, cache.index.clear(), cpu,
                               gc_log=False)
        self.tenants.note_inode_freed(ino)
        for page in list(self.log.iter_pages(cache.inode.log_head)):
            self.allocator.free(page, 1, cpu)
        self.itable.release(ino)
        del self.caches[ino]

    def rmdir(self, path: str) -> None:
        self._check_mounted()
        self.clock.advance(self.cpu_model.syscall_ns)
        pino, name, parent = self._namei(path)
        ino = parent.dentries.get(name)
        if ino is None:
            raise FileNotFound(path)
        cache = self.caches[ino]
        if cache.inode.itype != ITYPE_DIR:
            raise NotADirectory(path)
        if cache.dentries:
            raise DirectoryNotEmpty(path)
        cpu = ino_cpu(ino, self.cpus)
        self._append_dentry(pino, name, ino, valid=0, cpu=cpu)
        self.tenants.note_inode_freed(ino)
        for page in list(self.log.iter_pages(cache.inode.log_head)):
            self.allocator.free(page, 1, cpu)
        self.itable.release(ino)
        del self.caches[ino]

    # ------------------------------------------------------------------ data path

    def write(self, ino: int, offset: int, data: bytes,
              cpu: int = 0) -> int:
        """CoW write (Fig. 1).  Returns the number of bytes written."""
        self._check_mounted()
        if offset < 0:
            raise ValueError("negative offset")
        if not data:
            return 0
        if self._stage_or_drain(ino, offset, data, cpu):
            return len(data)
        t0 = self.clock.charged_ns
        with self.obs.span("fs.write", ino=ino,
                           pages=(offset + len(data) - 1) // PAGE_SIZE
                           - offset // PAGE_SIZE + 1):
            overwritten = self._write_pipeline(ino, offset, data, cpu)
        if overwritten:
            self._h_overwrite.observe(self.clock.charged_ns - t0)
        return len(data)

    def _stage_or_drain(self, ino: int, offset: int, data: bytes,
                        cpu: int) -> bool:
        """Absorb a small sync write into the staging tier, or drain.

        Returns True when the write was absorbed (durable in the staging
        log; the caller returns immediately).  Otherwise guarantees the
        inode has no staged records, so the direct path cannot run ahead
        of staged-but-undestaged updates.
        """
        st = self.staging
        if st is None or st.active:
            return False
        if (self.staging_enabled
                and len(data) <= PAGE_SIZE
                and st.try_stage(ino, offset, data)):
            return True
        if st.has_pending(ino):
            st.drain_ino(ino, cpu)
        return False

    def _write_pipeline(self, ino: int, offset: int, data: bytes,
                        cpu: int) -> int:
        """The one write body (Fig. 1); returns the pages it displaced.

        admit → assemble → *place* → commit → *settle* → install + retire
        → ``on_write_committed``.  Variants differ only in the two
        starred hooks (and the ``initial_dedupe_flag`` / ``reclaim_extents``
        / ``on_write_committed`` hooks they already had).  Nothing is
        visible before the tail commit, so ENOSPC anywhere up to it —
        data pages or a log page — has one rollback: :meth:`_unplace_pages`,
        and no tenant charge.
        """
        self.clock.advance(self.cpu_model.syscall_ns)
        cache = self._file_cache(ino, for_write=True)
        self._c_writes.inc()

        pg_first = offset // PAGE_SIZE
        pg_last = (offset + len(data) - 1) // PAGE_SIZE
        npages = pg_last - pg_first + 1

        # Admit.  The quota check is gross and logical (check, act, then
        # account): CoW needs the full allocation before the displaced
        # pages are known, and pages that deduplicate still count —
        # dedup savings accrue to the operator, never to the tenant.
        self.tenants.check_pages(ino, npages)

        # Assemble the final page contents (head/tail merge).
        buf = bytearray(npages * PAGE_SIZE)
        head_pad = offset - pg_first * PAGE_SIZE
        if head_pad:
            buf[:head_pad] = self.read_runs(cache, pg_first * PAGE_SIZE,
                                            PAGE_SIZE)[:head_pad]
            # Bytes between EOF and the write read as zeros: a hole, or
            # what a mid-page shrink cut (:meth:`_stale_tail`).
            eof = max(cache.inode.size - pg_first * PAGE_SIZE, 0)
            if eof < head_pad:
                buf[eof:head_pad] = bytes(head_pad - eof)
        tail_end = offset + len(data) - pg_first * PAGE_SIZE
        if tail_end % PAGE_SIZE and offset + len(data) < cache.inode.size:
            buf[tail_end:] = self.read_runs(cache, pg_last * PAGE_SIZE,
                                            PAGE_SIZE)[tail_end % PAGE_SIZE:]
        buf[head_pad:tail_end] = data

        segments = [(pg_first, buf)]
        if cache.inode.size < pg_first * PAGE_SIZE:
            segments[:0] = self._stale_tail(cache)
        return self._commit_pages(ino, cache, segments,
                                  max(cache.inode.size, offset + len(data)),
                                  cpu)

    def _stale_tail(self, cache: InodeCache) -> list:
        """The last page rewritten zero past EOF, as ``[(pgoff, page)]``
        for :meth:`_commit_pages`, or ``[]`` when it is whole, a hole or
        already zero there.  A mid-page shrink rewrites it after its
        commit, and a grow past EOF in the same commit as the grow: a
        crash or a full device between a shrink and its rewrite leaves
        the cut bytes on media."""
        pgoff, cut = divmod(cache.inode.size, PAGE_SIZE)
        if not cut or cache.index.lookup(pgoff) is None:
            return []
        page = self.read_runs(cache, pgoff * PAGE_SIZE, PAGE_SIZE)
        if page.count(0, cut) == PAGE_SIZE - cut:
            return []
        page[cut:] = bytes(PAGE_SIZE - cut)
        return [(pgoff, page)]

    def _commit_pages(self, ino: int, cache: InodeCache, segments: list,
                      size: int, cpu: int) -> int:
        """The pipeline from *place* on for ``segments`` of ``(pg_first,
        buf)``, the file ``size`` bytes after; returns the pages it
        overwrote."""
        placed = _Placed()
        try:
            # Place the pages, then commit one entry per run: data and
            # entries are fenced together, the tail update is the commit.
            for pg_first, buf in segments:
                self._place_pages(placed, pg_first, buf, cpu)
            mtime = self.stamp()
            flag = self.initial_dedupe_flag()
            appended = self._append_and_commit(ino, cache, [
                WriteEntry(file_pgoff=pgoff, num_pages=count, block=block,
                           size_after=size, ino=ino, mtime=mtime,
                           dedupe_flag=flag)
                for pgoff, block, count in placed.runs], cpu)
        except (AllocError, NoSpace) as exc:
            self._unplace_pages(placed, cpu)
            raise NoSpace(str(exc)) from None
        cache.inode.size = size
        cache.inode.mtime = mtime
        self._settle_pages(placed, appended)

        # Radix update; what every entry displaced is retired once: the
        # pages charged back, their entries noted dead, the pages
        # reclaimed (RFC-aware in DeNova).
        displaced = Displaced.join([cache.index.install(addr, entry)
                                    for addr, entry in appended])
        overwritten = displaced.total_pages
        if overwritten:
            self._c_overwrite_pages.inc(overwritten)
        self._retire_displaced(ino, cache, displaced, cpu, mapped=sum(
            len(buf) for _pg, buf in segments) // PAGE_SIZE)
        for addr, entry in appended:
            self.on_write_committed(ino, addr, entry, cpu)
        return overwritten

    def _retire_displaced(self, ino: int, cache: InodeCache,
                          displaced: Displaced, cpu: int, mapped: int = 0,
                          gc_log: bool = True, counted: bool = True) -> None:
        """Retire what an index update displaced: charge the tenant the
        net (``mapped`` new mappings minus the displaced ones), note the
        dead log entries, reclaim the pages — or, with ``counted=False``
        (pages no reference count describes: a dedup node's own
        duplicates), free them directly."""
        self.tenants.account_pages(ino, mapped - displaced.total_pages)
        if gc_log:
            self._note_dead_entries(cache, displaced)
        if counted:
            self.reclaim_extents(displaced.extents, cpu)
        else:
            self.free_extents(displaced.extents, cpu)

    def read(self, ino: int, offset: int, length: int, cpu: int = 0) -> bytes:
        """Read up to ``length`` bytes (short at EOF; holes read as zeros)."""
        self._check_mounted()
        if offset < 0 or length < 0:
            raise ValueError("negative offset/length")
        with self.obs.span("fs.read", ino=ino):
            self.clock.advance(self.cpu_model.syscall_ns)
            cache = self._file_cache(ino)
            self._c_reads.inc()
            length = min(length, cache.inode.size - offset)
            if length <= 0:
                return b""
            out = self.read_runs(cache, offset, length)
            if self.staging is not None:
                # Read-your-writes over staged-but-undestaged records.
                self.staging.overlay(ino, offset, out)
            return bytes(out)

    def read_runs(self, cache: InodeCache, offset: int, length: int
                  ) -> bytearray:
        """:meth:`read`'s device side, for a range inside the file: its
        runs read one request per physical neighbourhood, a repeat copied
        (:func:`read_scattered`, docs/CONSISTENCY.md §5), zeros for a
        hole; no syscall, counter or staging overlay (restore uses it)."""
        out = bytearray(length)
        read_scattered(self.dev, self.read_spans(cache, offset, length), out)
        return out

    def read_spans(self, cache: InodeCache, offset: int, length: int
                   ) -> list[tuple[int, int, int]]:
        """The device spans ``(addr, end, dst)`` a read of the range
        fetches, one per run of it (a hole has none), ``dst`` the span's
        offset in the result: what :meth:`read_runs` plans its requests
        over, and what relocation counts them on."""
        end = offset + length
        runs: list[list[int]] = []
        for pgoff in range(offset // PAGE_SIZE, (end - 1) // PAGE_SIZE + 1):
            block = cache.index.block_of(pgoff)
            if block is not None:
                extend_runs(runs, pgoff, block)
        spans = []
        for pgoff, block, count in runs:
            lo = max(pgoff * PAGE_SIZE, offset)
            a = block * PAGE_SIZE + lo - pgoff * PAGE_SIZE  # device [a, z)
            z = a + min((pgoff + count) * PAGE_SIZE, end) - lo
            spans.append((a, z, lo - offset))
        return spans

    def truncate(self, ino: int, size: int, cpu: int = 0) -> None:
        """Set file size; shrinking reclaims pages past the new end."""
        self._check_mounted()
        if size < 0:
            raise ValueError("negative size")
        st = self.staging
        if st is not None and not st.active and st.has_pending(ino):
            st.drain_ino(ino, cpu)
        with self.obs.span("fs.truncate", ino=ino):
            self._truncate_locked(ino, size, cpu)

    def _truncate_locked(self, ino: int, size: int, cpu: int) -> None:
        self.clock.advance(self.cpu_model.syscall_ns)
        cache = self._file_cache(ino, for_write=True)
        # POSIX: bytes past EOF read as zeros when the file grows again.  A
        # grow over bytes a mid-page shrink left zeroes them with its size,
        # in one write entry.
        tail = self._stale_tail(cache) if size > cache.inode.size else []
        if tail:
            self._commit_pages(ino, cache, tail, size, cpu)
            return
        entry = SetattrEntry(ino=ino, new_size=size,
                             mtime=self.stamp())
        self._append_and_commit(ino, cache, [entry], cpu)
        shrunk = size < cache.inode.size
        if shrunk:
            keep = (size + PAGE_SIZE - 1) // PAGE_SIZE
            self._retire_displaced(ino, cache,
                                   cache.index.truncate_pages(keep), cpu)
        cache.inode.size = size
        cache.inode.mtime = entry.mtime
        # The setattr is the commit point: a shrink needs no data page or
        # quota room, and has freed what it dropped.  Its partial page is
        # then rewritten zero past EOF, which no reader sees; a crash or
        # a full device first leaves the cut bytes to the next grow.
        tail = self._stale_tail(cache) if shrunk else []
        if tail:
            try:
                self._commit_pages(ino, cache, tail, size, cpu)
            except NoSpace:
                pass

    def stat(self, ino: int) -> Stat:
        self._check_mounted()
        self.clock.advance(self.cpu_model.syscall_ns)
        cache = self.caches.get(ino)
        if cache is None:
            raise FileNotFound(f"ino {ino}")
        i = cache.inode
        return Stat(ino=i.ino, itype=i.itype, size=i.size, mtime=i.mtime,
                    links=i.links)

    def statfs(self) -> dict:
        return {
            "total_pages": self.geo.total_pages,
            "data_pages": self.geo.data_pages,
            "free_pages": self.allocator.free_pages,
            "used_pages": self.geo.data_pages - self.allocator.free_pages,
        }

    def walk(self, top: str = "/"):
        """``(path, ino, cache)`` of every entry under directory ``top``,
        depth first in name order, never following a symlink: one
        :meth:`listdir` per directory, one ``lookup(path, follow=False)``
        per entry.  Lazy: a directory is yielded before it is listed."""
        for name in self.listdir(top):
            path = f"{top.rstrip('/')}/{name}"
            ino = self.lookup(path, follow=False)
            cache = self.caches[ino]
            yield path, ino, cache
            if cache.inode.itype == ITYPE_DIR:
                yield from self.walk(path)

    def du(self, top: str = "/") -> dict:
        """Tree usage: logical vs. physical, dedup/snapshot-aware.

        A file counts once however many names it has, as in du(1).
        ``logical_pages`` counts every page *reference* (a block
        reflinked from three snapshots counts three times, as in FACT
        RFC sums); ``unique_pages`` counts each block once — the pages
        the tree pins.  ``shared_pages`` is the number of blocks
        referenced more than once within the tree, and ``saved_bytes``
        what sharing saves over a dedup-less copy of the same content.
        """
        logical = 0
        logical_pages = 0
        ndirs = 0
        seen: set[int] = set()
        refs: Counter[int] = Counter()
        for _path, ino, cache in self.walk(top):
            itype = cache.inode.itype
            if itype == ITYPE_DIR:
                ndirs += 1
            if itype != ITYPE_FILE or ino in seen:
                continue
            seen.add(ino)
            logical += cache.inode.size
            # Per-mapping, not per-unique-block: a block mapped at
            # two offsets is two logical pages (matches FACT RFCs).
            file_blocks = [b for _p, _a, b in cache.index.mappings()]
            logical_pages += len(file_blocks)
            refs.update(file_blocks)
        unique = len(refs)
        shared = sum(1 for n in refs.values() if n > 1)
        return {"files": len(seen), "dirs": ndirs, "logical_bytes": logical,
                "logical_pages": logical_pages,
                "unique_pages": unique,
                "shared_pages": shared,
                "physical_bytes": unique * PAGE_SIZE,
                "saved_bytes": (logical_pages - unique) * PAGE_SIZE}

    # ------------------------------------------------------------------ tenants

    def tenant_create(self, name: str, quota_pages: int = 0,
                      quota_inodes: int = 0, weight: int = 1):
        """Create a tenant rooted at ``/t/<name>`` (see repro.tenant)."""
        self._check_mounted()
        return self.tenants.tenant_create(name, quota_pages=quota_pages,
                                          quota_inodes=quota_inodes,
                                          weight=weight)

    def tenant_set_quota(self, name: str, quota_pages: int | None = None,
                         quota_inodes: int | None = None,
                         weight: int | None = None):
        self._check_mounted()
        return self.tenants.set_quota(name, quota_pages=quota_pages,
                                      quota_inodes=quota_inodes,
                                      weight=weight)

    def tenant_stats(self) -> dict:
        self._check_mounted()
        return self.tenants.stats()

    # ------------------------------------------------------------------ helpers

    def _file_cache(self, ino: int, for_write: bool = False) -> InodeCache:
        cache = self.caches.get(ino)
        if cache is None:
            raise FileNotFound(f"ino {ino}")
        if cache.inode.itype != ITYPE_FILE:
            raise IsADirectory(f"ino {ino}")
        if for_write and cache.inode.flags & FLAG_IMMUTABLE:
            raise ReadOnlyFile(f"ino {ino} is immutable (snapshot member)")
        return cache

    #: Auto-trigger thorough GC when a log has this many entries and
    #: more than half are dead (scattered beyond fast GC's reach).
    THOROUGH_GC_MIN_ENTRIES = 4 * 63
    THOROUGH_GC_DEAD_RATIO = 0.5

    def _note_dead_entries(self, cache: InodeCache,
                           displaced: Displaced) -> None:
        """Track fully-superseded entries per log page; GC full pages."""
        for addr in displaced.dead_entries:
            page = addr // PAGE_SIZE
            cache.invalid_entries[page] = cache.invalid_entries.get(page, 0) + 1
        self._maybe_gc_log(cache)
        dead = sum(cache.invalid_entries.values())
        if (cache.entry_count >= self.THOROUGH_GC_MIN_ENTRIES
                and dead > self.THOROUGH_GC_DEAD_RATIO * cache.entry_count):
            thorough_gc(self, cache.inode.ino)

    def _maybe_gc_log(self, cache: InodeCache) -> None:
        """NOVA fast GC: splice out log pages whose entries are all dead,
        every one the chain walk passes.

        Head and tail pages are never touched; a middle page is dead when
        all of its committed entries have been superseded.
        """
        head = cache.inode.log_head
        if not head:
            return
        tail_page = (cache.tail - 1) // PAGE_SIZE if cache.tail else 0
        pages = list(self.log.iter_pages(head))
        prev = head
        for page, nxt in zip(pages[1:], pages[2:] + [0]):
            if (page != tail_page
                    and cache.invalid_entries.get(page, 0) >= ENTRIES_PER_PAGE
                    and self.log_page_gc_allowed(page)):
                # Splice it out, then free it: a crash before the link is
                # durable keeps the old chain, after it the shorter one.
                self.log.link(prev, nxt)
                self.allocator.free(page, 1, 0)
                cache.invalid_entries.pop(page, None)
                self._c_log_gced.inc()
            else:
                prev = page

    def thorough_gc_allowed(self, ino: int, chain_pages: list[int]) -> bool:
        """DeNova vetoes compaction while dedup work references the log."""
        return True

    def set_dedupe_flag(self, entry_addr: int, flag: int) -> None:
        """In-place, crash-atomic dedupe-flag update (Fig. 5)."""
        self.dev.write(entry_addr + DEDUPE_FLAG_OFFSET, bytes([flag]),
                       persist=True)

    def read_entry(self, addr: int):
        return decode_entry(self.dev.read(addr, ENTRY_SIZE))

    # ------------------------------------------------------------------ hooks

    def _place_pages(self, placed: _Placed, pg_first: int, buf: bytearray,
                     cpu: int) -> None:
        """Pipeline stage *place*: store ``buf`` and describe where.

        Fills ``placed`` as it goes, so the pipeline can undo a placement
        that ran out of space half way.  Plain NOVA: one contiguous
        allocation, one non-temporal store, one run.
        """
        npages = len(buf) // PAGE_SIZE
        block = self.allocator.alloc(npages, cpu)
        placed.fresh.append((block, npages))
        self.dev.write(block * PAGE_SIZE, bytes(buf), nt=True)
        placed.runs.append([pg_first, block, npages])

    def _unplace_pages(self, placed: _Placed, cpu: int) -> None:
        """Undo :meth:`_place_pages` for a write that never committed."""
        for block, count in placed.fresh:
            self.allocator.free(block, count, cpu)

    def _settle_pages(self, placed: _Placed, appended: list[tuple]) -> None:
        """Pipeline stage *settle*, run right after the tail commit:
        inline dedup settles its staged counts and completes the flags."""

    def initial_dedupe_flag(self) -> int:
        """Plain NOVA marks writes complete: nothing will dedup them."""
        return DEDUPE_COMPLETE

    def reclaim_extents(self, extents: Iterable[tuple[int, int]],
                        cpu: int) -> None:
        """Free obsolete data pages.  DeNova overrides with RFC checks."""
        self.free_extents(extents, cpu)

    def free_extents(self, extents: Iterable[tuple[int, int]],
                     cpu: int) -> None:
        """Free data pages nothing else references, one run per extent."""
        for start, count in extents:
            self.allocator.free(start, count, cpu)
            self._c_reclaimed.inc(count)

    def on_write_committed(self, ino: int, entry_addr: int,
                           entry: WriteEntry, cpu: int) -> None:
        """Called after the tail update.  DeNova enqueues the DWQ node."""

    def log_page_gc_allowed(self, page: int) -> bool:
        """DeNova vetoes GC of pages holding entries still awaiting dedup."""
        return True

    def _post_recover(self, report, clean: bool) -> None:
        """Subclass hook run at the end of recovery (DWQ/FACT fix-ups)."""

    def _post_mount(self) -> None:
        """Subclass hook run once the fs is mounted and operable.

        Unlike :meth:`_post_recover` (which runs *during* recovery,
        before ``mounted`` is set), this hook may use the full public
        op surface — DeNova runs its unclean-mount hooks here.
        """


def ino_cpu(ino: int, cpus: int) -> int:
    """Stable inode -> CPU affinity for allocator locality."""
    return ino % cpus
