"""Runtime tenant state: ownership, usage accounting, quota checks.

All of this is DRAM state, rebuilt at mount by walking the ``/t``
subtree — exactly the discipline NOVA applies to its in-memory trees
and the PR 5 space accounting applies to reference counts.  Rebuilding
(rather than persisting usage) makes crash recovery trivially correct:
whatever the logs replay to *is* the usage.

Accounting is **logical**: a tenant is charged one page per mapped page
reference in its files, so N tenants holding the same deduplicated
block are charged N pages while the global allocator (and ``du``'s
``unique_pages``) still counts one physical page.  Quota checks happen
*before* allocation and charge *after* the radix-tree install, so a
failed allocation never leaks a charge.

The page check is gross (the full CoW allocation, before knowing how
many old pages the write displaces): CoW needs that headroom to exist
anyway, and the charge recorded afterwards is the net mapping delta.
Ownership is assigned at inode creation (inherited from the parent
directory) and sticks across rename, like a uid.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional

from repro.nova.errors import FSError
from repro.nova.inode import ITYPE_DIR, ITYPE_FILE
from repro.tenant.errors import QuotaExceeded
from repro.tenant.registry import TenantInfo, TenantRegistry

__all__ = ["TenantManager", "TENANT_ROOT"]

TENANT_ROOT = "/t"


class TenantManager:
    """Per-mount tenant runtime attached to a filesystem instance."""

    def __init__(self, fs):
        self.fs = fs
        geo = fs.geo
        self.registry: Optional[TenantRegistry] = (
            TenantRegistry(fs.dev, geo.tenant_page, geo.tenant_pages)
            if geo.tenant_pages else None)
        self.owner: dict[int, int] = {}          # ino -> tid
        self.usage_pages: dict[int, int] = {}    # tid -> logical pages
        self.usage_inodes: dict[int, int] = {}   # tid -> inodes
        self._metered: set[int] = set()
        self._bypass = 0                         # admission-skip depth

    @property
    def enabled(self) -> bool:
        return self.registry is not None and len(self.registry) > 0

    # ------------------------------------------------------------ lifecycle

    def tenant_create(self, name: str, quota_pages: int = 0,
                      quota_inodes: int = 0, weight: int = 1) -> TenantInfo:
        """Create a tenant: its ``/t/<name>`` root plus the durable record.

        The registry save is the commit point.  A crash before it leaves
        at most an unowned directory, which a retry adopts (the mkdirs
        tolerate existing directories), so the op replays idempotently
        under the fuzz oracle's pointwise prefix check.
        """
        fs = self.fs
        if self.registry is None:
            raise FSError("image has no tenant registry region")
        if self.registry.get(name) is not None:
            raise ValueError(f"tenant {name!r} already exists")
        TenantRegistry._check_name(name)
        if not fs.exists(TENANT_ROOT):
            fs.mkdir(TENANT_ROOT)
        root_path = f"{TENANT_ROOT}/{name}"
        if fs.exists(root_path):
            root_ino = fs.lookup(root_path)
        else:
            root_ino = fs.mkdir(root_path)
        info = self.registry.create(name, quota_pages=quota_pages,
                                    quota_inodes=quota_inodes,
                                    weight=weight)
        self.owner[root_ino] = info.tid
        self.usage_inodes[info.tid] = (
            self.usage_inodes.get(info.tid, 0) + 1)
        self._register_metrics(info)
        return info

    def set_quota(self, name: str, quota_pages: int | None = None,
                  quota_inodes: int | None = None,
                  weight: int | None = None) -> TenantInfo:
        if self.registry is None:
            raise FSError("image has no tenant registry region")
        info = self.registry.set_quota(name, quota_pages=quota_pages,
                                       quota_inodes=quota_inodes,
                                       weight=weight)
        self._register_metrics(info)
        return info

    def rebuild(self) -> None:
        """Recompute ownership and usage from the mounted namespace."""
        self.owner.clear()
        self.usage_pages.clear()
        self.usage_inodes.clear()
        if self.registry is None:
            return
        self.registry.load()
        if not len(self.registry):
            return
        fs = self.fs
        if not fs.exists(TENANT_ROOT):
            return
        troot = fs.caches[fs.lookup(TENANT_ROOT)]
        for info in self.registry:
            root_ino = troot.dentries.get(info.name)
            if root_ino is None:
                continue  # crashed before the tenant root was published
            self._adopt_subtree(root_ino, info.tid)
            self._register_metrics(info)

    def _adopt_subtree(self, root_ino: int, tid: int) -> None:
        stack = [root_ino]
        inodes = 0
        pages = 0
        while stack:
            ino = stack.pop()
            if ino in self.owner:
                # Already adopted this walk: a second dentry to the same
                # inode (hard link).  Counting it again would charge the
                # file once per link while live accounting charges it
                # once per inode — rebuilt usage would exceed live usage
                # and raise spurious QuotaExceeded after a remount; it
                # also terminates the walk on any dentry cycle.  rebuild
                # clears ``owner`` first, so the first traversal (stable
                # registry iteration order) owns the inode.
                continue
            cache = self.fs.caches.get(ino)
            if cache is None:
                continue
            self.owner[ino] = tid
            inodes += 1
            if cache.inode.itype == ITYPE_DIR:
                stack.extend(cache.dentries.values())
            elif cache.inode.itype == ITYPE_FILE:
                pages += len(cache.index)
        self.usage_inodes[tid] = self.usage_inodes.get(tid, 0) + inodes
        self.usage_pages[tid] = self.usage_pages.get(tid, 0) + pages

    # ------------------------------------------------------------ queries

    def tenant_of(self, ino: int) -> Optional[int]:
        return self.owner.get(ino)

    def info_of(self, ino: int) -> Optional[TenantInfo]:
        tid = self.owner.get(ino)
        if tid is None or self.registry is None:
            return None
        return self.registry.tenants.get(tid)

    def stats(self) -> dict:
        """Per-tenant usage/quota summary (the ``stats`` CLI section)."""
        out = {}
        if self.registry is None:
            return out
        for info in self.registry:
            out[info.name] = {
                "tid": info.tid,
                "weight": info.weight,
                "used_pages": self.usage_pages.get(info.tid, 0),
                "quota_pages": info.quota_pages,
                "used_inodes": self.usage_inodes.get(info.tid, 0),
                "quota_inodes": info.quota_inodes,
            }
        return out

    # ------------------------------------------------------------ enforcement

    @contextmanager
    def bypass_quota(self):
        """Skip admission checks (``check_pages``/``check_inode``) only.

        Used by staging destage/replay: admission already happened at
        stage time, and the deferred write must not fail a check it
        passed when it was accepted as durable.  ``account_pages`` still
        charges normally, so net usage matches the direct write path.
        """
        self._bypass += 1
        try:
            yield
        finally:
            self._bypass -= 1

    def check_inode(self, parent_ino: int) -> None:
        if self._bypass:
            return
        info = self.info_of(parent_ino)
        if info is None or not info.quota_inodes:
            return
        used = self.usage_inodes.get(info.tid, 0)
        if used + 1 > info.quota_inodes:
            raise QuotaExceeded(info.name, "inode", used, 1,
                                info.quota_inodes)

    def note_inode(self, ino: int, parent_ino: int) -> None:
        tid = self.owner.get(parent_ino)
        if tid is None:
            return
        self.owner[ino] = tid
        self.usage_inodes[tid] = self.usage_inodes.get(tid, 0) + 1

    def note_inode_freed(self, ino: int) -> None:
        tid = self.owner.pop(ino, None)
        if tid is not None:
            self.usage_inodes[tid] = max(
                0, self.usage_inodes.get(tid, 0) - 1)

    def check_pages(self, ino: int, npages: int) -> None:
        if self._bypass:
            return
        info = self.info_of(ino)
        if info is None or not info.quota_pages:
            return
        used = self.usage_pages.get(info.tid, 0)
        if used + npages > info.quota_pages:
            raise QuotaExceeded(info.name, "data-page", used, npages,
                                info.quota_pages)

    def account_pages(self, ino: int, delta: int) -> None:
        tid = self.owner.get(ino)
        if tid is None or delta == 0:
            return
        self.usage_pages[tid] = max(0, self.usage_pages.get(tid, 0) + delta)
        if delta > 0:
            self.fs.obs.registry.counter(
                "tenant.pages_charged_total",
                labels=self._labels(tid),
                help="logical data pages charged to the tenant").inc(delta)

    # ------------------------------------------------------------ metering

    def _labels(self, tid: int) -> dict:
        info = self.registry.tenants.get(tid) if self.registry else None
        return {"tenant": info.name if info else str(tid)}

    def _register_metrics(self, info: TenantInfo) -> None:
        """Per-tenant billing gauges (idempotent; re-pointed on rebuild)."""
        reg = self.fs.obs.registry
        labels = {"tenant": info.name}
        tid = info.tid
        reg.gauge_fn("tenant.used_pages",
                     lambda tid=tid: self.usage_pages.get(tid, 0),
                     labels=labels,
                     help="logical data pages currently charged")
        reg.gauge_fn("tenant.used_inodes",
                     lambda tid=tid: self.usage_inodes.get(tid, 0),
                     labels=labels,
                     help="inodes currently charged")
        reg.gauge_fn("tenant.quota_pages",
                     lambda tid=tid: (self.registry.tenants[tid].quota_pages
                                      if self.registry and
                                      tid in self.registry.tenants else 0),
                     labels=labels,
                     help="data-page quota (0 = unlimited)")
        reg.gauge_fn("tenant.quota_inodes",
                     lambda tid=tid: (self.registry.tenants[tid].quota_inodes
                                      if self.registry and
                                      tid in self.registry.tenants else 0),
                     labels=labels,
                     help="inode quota (0 = unlimited)")
        reg.gauge_fn("tenant.weight",
                     lambda tid=tid: (self.registry.tenants[tid].weight
                                      if self.registry and
                                      tid in self.registry.tenants else 0),
                     labels=labels, help="QoS scheduling weight")
        self._metered.add(tid)
