"""Reflink copies and snapshots on top of FACT reference counting.

A **reflink** (``cp --reflink`` semantics) is deduplication with a known
source: the destination file gets fresh write entries pointing at the
*source's* data pages, and each shared page's FACT reference count rises
by one.  Cost is O(metadata): no data pages move.  Source pages that
were never fingerprinted (their dedup is still queued) are fingerprinted
and inserted on the spot — a reflink *is* an eager dedup of its source.

Crash consistency reuses Algorithm 1's machinery verbatim: stage UCs →
append ``in_process`` entries → one atomic tail commit → settle counts →
``dedupe_complete``.  The destination inode is published (dentry append)
only after its content committed; a crash anywhere earlier leaves an
orphan that recovery collects, and the staged UCs are discarded or
resumed exactly as §V-C prescribes.  A *handled* failure (no space, a
full inode table or FACT) aborts the :class:`~repro.dedup.fact.FactTxn`
and discards the unpublished inode: the caller keeps the image it had.

A **snapshot** is a reflink of the whole tree into
``/.snapshots/<name>/``, with every copied file marked immutable
(:data:`repro.nova.inode.FLAG_IMMUTABLE`).  Snapshot creation is atomic
per file, not per tree: a crash mid-snapshot leaves a readable partial
snapshot directory that :func:`delete_snapshot` removes — documented
behaviour, as cross-file atomicity would need a tree-wide journal.
"""

from __future__ import annotations

from collections import Counter

from repro.dedup.daemon import append_redirects, complete_redirects
from repro.dedup.fact import FactTxn
from repro.nova.entries import SetattrEntry
from repro.nova.fs import FileExists, FileNotFound, FSError, IsADirectory
from repro.nova.inode import FLAG_IMMUTABLE, ITYPE_DIR, ITYPE_FILE
from repro.nova.layout import PAGE_SIZE
from repro.nova.persist import remove_tree
from repro.nova.radix import extend_runs

__all__ = ["reflink", "materialise_shared", "snapshot", "delete_snapshot",
           "list_snapshots", "SNAPSHOT_DIR", "STAGE_DIR", "REPL_DIR"]

SNAPSHOT_DIR = "/.snapshots"
#: Where ``repro.backup`` stages an ingest and records chain lineage.
#: A snapshot copies neither.
STAGE_DIR = "/.backup_stage"
REPL_DIR = "/.repl"


def reflink(fs, src: str, dst: str, immutable: bool = False) -> int:
    """Create ``dst`` sharing every data page of ``src``.  Returns its ino."""
    src_ino = fs.lookup(src)
    src_cache = fs.caches[src_ino]
    if src_cache.inode.itype != ITYPE_FILE:
        raise IsADirectory(src)
    staging = fs.staging
    if staging is not None and staging.has_pending(src_ino):
        # Reflink reads the source through its radix index; staged but
        # undestaged records must land there first.
        staging.drain_ino(src_ino)
    dpino, dname, dparent = fs._namei(dst)
    if dname in dparent.dentries:
        raise FileExists(dst)
    cpu = src_ino % fs.cpus

    # Quota admission up front, before any UC is staged or any slot
    # taken: quotas are logical per-mapping, so the destination tenant
    # (the parent directory's owner) is charged one page per shared
    # mapping, exactly like a CoW write of the same content.  Checking
    # first makes an over-quota reflink atomic — QuotaExceeded leaves
    # no staged UC, no orphan inode, no partial clone.
    n_mappings = len(src_cache.index.mapped_offsets)
    fs.tenants.check_inode(dpino)
    if n_mappings:
        fs.tenants.check_pages(dpino, n_mappings)

    # Stage: one share per distinct source block for all the pages that
    # map it; fingerprint-and-insert blocks that have no FACT entry yet
    # (pending offline dedup).
    mapped = [(pgoff, src_cache.index.block_of(pgoff))
              for pgoff in src_cache.index.mapped_offsets]
    refs = Counter(block for _pgoff, block in mapped)
    canonical: dict[int, int] = {}  # source block -> the one dst maps
    with FactTxn(fs.fact).plan(refs) as txn:
        for block, n in refs.items():
            canonical[block] = block
            ent = txn.entry(block)
            if ent is not None:
                txn.share(ent.idx, n)
                continue
            data = fs.dev.read(block * PAGE_SIZE, PAGE_SIZE)
            fp = fs.fingerprinter.strong(data)
            res = txn.lookup(fp)
            if res.found is not None and res.found.block != block:
                # The source page itself duplicates an existing
                # canonical page; share *that* one (and this page will
                # be reclaimed when the source's own dedup runs).
                txn.share(res.found.idx, n=n)
                canonical[block] = res.found.block
                continue
            idx = txn.claim(fp, block, hint=res)
            if idx is None:
                raise FSError("reflink needs a FACT slot per shared page "
                              "and the table is full")
            # The fresh entry must count the *source's* reference as well
            # as the destination's (the source's queued dedup will
            # self-hit with RFC >= 1 and correctly add nothing).
            txn.share(idx, n=n)
        runs: list[list[int]] = []  # [pgoff, block, count]
        for pgoff, block in mapped:
            extend_runs(runs, pgoff, canonical[block])

        # Unpublished destination inode (orphan until the dentry lands).
        # ``parent=dpino`` inherits the destination tenant's ownership, so
        # the mappings charged below (and uncharged by unlink, e.g. via
        # delete_snapshot) land on the right quota.
        dst_ino = fs._new_inode(ITYPE_FILE, cpu, parent=dpino)
        dst_cache = fs.caches[dst_ino]
        try:
            if immutable:
                dst_cache.inode.flags |= FLAG_IMMUTABLE
                fs.itable.write(dst_ino, dst_cache.inode)
            materialise_shared(fs, dst_ino, runs, src_cache.inode.size, txn,
                               cpu)
            fs._append_dentry(dpino, dname, dst_ino, valid=1, cpu=cpu)
        except FSError:
            # Never published: whatever it already maps is un-referenced
            # through the RFC-aware reclaim; log, slot and charges go back.
            fs._drop_file_body(dst_ino, dst_cache, cpu)
            raise
    return dst_ino


def materialise_shared(fs, ino: int, runs: list, size: int, txn: FactTxn,
                       cpu: int) -> None:
    """Give the unpublished inode ``ino`` its content: ``runs`` of shared
    pages ``(pgoff, block, count)`` whose FACT counts ``txn`` has staged.

    Algorithm 1's publish pair, shared by reflink and ``backup recv``:
    ``append_redirects`` (``in_process`` entries, one atomic tail commit)
    → settle the counts → ``complete_redirects`` (``dedupe_complete``,
    radix repoint) → tenant charge (one page per mapping: a fresh file
    displaces nothing, and it is the figure the mount-time rebuild
    counts from the index).  The caller publishes the dentry afterwards;
    until then a crash leaves an orphan.
    """
    cache = fs.caches[ino]
    cache.inode.size = size
    cache.inode.mtime = fs.stamp()
    appended = append_redirects(fs, ino, cache, runs, cpu)
    if not runs and size:
        # Fully sparse: no pages to share, but the size must be durable
        # — a setattr entry is the only record of it.
        fs._append_and_commit(ino, cache, [SetattrEntry(
            ino=ino, new_size=size, mtime=cache.inode.mtime)], cpu)
    txn.commit()
    complete_redirects(fs, cache, appended)
    fs.tenants.account_pages(ino, sum(count for _p, _b, count in runs))


def _ensure_snapshot_root(fs) -> None:
    if not fs.exists(SNAPSHOT_DIR):
        fs.mkdir(SNAPSHOT_DIR)


def _check_name(name: str) -> None:
    """A snapshot name is one path component, and not ``.`` or ``..``."""
    if not name or "/" in name or name in (".", ".."):
        raise ValueError(f"bad snapshot name {name!r}")


def snapshot(fs, name: str) -> dict:
    """Reflink the whole tree (except snapshots) into /.snapshots/name."""
    _check_name(name)
    _ensure_snapshot_root(fs)
    base = f"{SNAPSHOT_DIR}/{name}"
    if fs.exists(base):
        raise FileExists(base)
    fs.mkdir(base)
    files = 0
    dirs = 0

    def copy(src_path: str, cache) -> None:
        nonlocal files, dirs
        dst_path = f"{base}{src_path}"
        itype = cache.inode.itype
        if itype == ITYPE_DIR:
            fs.mkdir(dst_path)
            dirs += 1
        elif itype == ITYPE_FILE:
            reflink(fs, src_path, dst_path, immutable=True)
            files += 1
        else:  # symlink: copied as a symlink, not its target
            fs.symlink(fs.readlink(src_path), dst_path)
            files += 1

    # Listed here, not walked: the three system trees are never looked up.
    for entry in fs.listdir("/"):
        src_path = f"/{entry}"
        if src_path in (SNAPSHOT_DIR, STAGE_DIR, REPL_DIR):
            continue
        ino = fs.lookup(src_path, follow=False)
        cache = fs.caches[ino]
        copy(src_path, cache)
        if cache.inode.itype == ITYPE_DIR:
            for path, _ino, child in fs.walk(src_path):
                copy(path, child)
    return {"name": name, "files": files, "dirs": dirs, "path": base}


def list_snapshots(fs) -> list[str]:
    """Snapshot names in deterministic (lexicographic) order.

    The sort is explicit — ``snap list``, ``backup list``, and every
    test that compares listings rely on this ordering contract, not on
    ``listdir`` happening to sort.
    """
    if not fs.exists(SNAPSHOT_DIR):
        return []
    return sorted(fs.listdir(SNAPSHOT_DIR))


def delete_snapshot(fs, name: str) -> int:
    """Remove a snapshot tree; shared pages' RFCs drop accordingly."""
    _check_name(name)
    base = f"{SNAPSHOT_DIR}/{name}"
    if not fs.exists(base):
        raise FileNotFound(base)
    return remove_tree(fs, base)
