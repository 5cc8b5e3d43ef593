"""``backup recv``: dedup-aware, failure-atomic snapshot ingest.

Incoming pages are deduplicated against the *target's* FACT: a
fingerprint already present costs one staged-UC/commit-RFC pair and no
data copy; a novel fingerprint allocates a page, streams its record in,
and inserts a FACT entry (table-full falls back to an un-fingerprinted
page — one reference, no entry, exactly like a write whose offline
dedup was skipped).

Failure atomicity — the commit-flag protocol
--------------------------------------------
The snapshot is materialized under a *staging* directory,
``/.backup_stage/<name>@<stream12>``, file by file with reflink's own
crash discipline (orphan inode → staged UCs → ``in_process`` entries →
one atomic tail commit → settle → publish dentry).  When the whole tree
is staged, one atomic cross-directory rename — the redo journal's
committed flag is the linearization point — moves it to
``/.snapshots/<name>``.  That rename *is* the single commit flag: until
it happens the target has no snapshot named ``<name>``.

Stages are namespaced per ``stream_id`` so *concurrent* ingests (a
fan-in consolidating several sources into one target) never share a
staging directory, and an unclean mount can roll back exactly the
streams that were torn.  The sibling cursor file carries an ``active``
dirty-mark: ``True`` from the moment a ``recv`` starts mutating the
stage until it either pauses cleanly (``max_entries`` exhausted —
rewritten ``False``) or commits (cursor unlinked with the stage).
After an **unclean** mount, :func:`rollback_torn_ingests` — registered
in :attr:`DeNovaFS.unclean_mount_hooks <repro.dedup.denova.DeNovaFS.
unclean_mount_hooks>` at import — calls :func:`rollback_staging` with
``torn_only=True``: a stage whose cursor is absent, garbled, or still
``active`` was torn mid-ingest and is removed (the fsck-clean
guarantee); a cleanly-paused stage survives and resumes.

Resume — the in-image cursor
----------------------------
A *clean* unmount intentionally preserves staging: the cursor file
``/.backup_stage/<name>@<stream12>.cursor`` records the ``stream_id``
being ingested, and a later ``recv`` of the same stream skips every
already-published path (publishing is per-entry atomic, so an existing
path is a complete entry).  Staging under the same snapshot name whose
``stream_id`` does not match is torn down first — resuming a
deleted-and-recreated source snapshot restarts from scratch.  The
cursor lives in the image, so it can never disagree with the staged
tree it describes.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

from repro.backup.chain import record_chain
from repro.backup.diff import BackupError
from repro.backup.stream import (
    StreamError,
    index_records,
    read_header,
    read_record_at,
)
from repro.dedup.denova import DeNovaFS
from repro.dedup.fact import FactTxn
from repro.dedup.reflink import SNAPSHOT_DIR, STAGE_DIR, materialise_shared
from repro.nova import persist
from repro.nova.fs import FileExists, FSError, NoSpace, ino_cpu
from repro.nova.inode import FLAG_IMMUTABLE, ITYPE_DIR, ITYPE_FILE
from repro.nova.layout import PAGE_SIZE
from repro.nova.radix import extend_runs
from repro.pm.allocator import AllocError

__all__ = ["STAGE_DIR", "receive_backup", "rollback_staging",
           "rollback_torn_ingests", "staged_ingests"]

#: Stream-id prefix length used in stage names — enough to keep
#: concurrent streams apart, short enough for readable listings.
_SID_CHARS = 12


def _stage_key(name: str, sid: str) -> str:
    return f"{name}@{sid[:_SID_CHARS]}"


def _stage_path(name: str, sid: str) -> str:
    return f"{STAGE_DIR}/{_stage_key(name, sid)}"


def _cursor_path(name: str, sid: str) -> str:
    return _stage_path(name, sid) + ".cursor"


def staged_ingests(fs) -> list[dict]:
    """Every staged (uncommitted) ingest with its cursor state.

    Entries are ``{"snapshot", "stage", "stream_id", "applied",
    "active"}`` sorted by stage name; a stage whose cursor is missing or
    garbled reports ``stream_id=None, active=True`` (it is torn by
    definition).
    """
    out = []
    if not persist.lexists(fs, STAGE_DIR):
        return out
    for entry in sorted(fs.listdir(STAGE_DIR)):
        path = f"{STAGE_DIR}/{entry}"
        ino = fs.lookup(path, follow=False)
        if fs.caches[ino].inode.itype != ITYPE_DIR:
            continue
        cur = persist.read_state(fs, path + ".cursor") or {}
        out.append({
            "snapshot": cur.get("snapshot", entry.rsplit("@", 1)[0]),
            "stage": path,
            "stream_id": cur.get("stream_id"),
            "applied": cur.get("applied", 0),
            "active": bool(cur.get("active", True)),
        })
    return out


def rollback_staging(fs, torn_only: bool = False) -> dict:
    """Remove staged ingests (and stray cursors) — the fsck path.

    With ``torn_only`` (the unclean-mount hook), only stages whose
    cursor is absent, garbled, or still marked ``active`` are removed:
    those were torn mid-``recv``.  A cleanly-paused stage (cursor
    ``active=False``) holds only per-entry-committed files and is kept
    for resume — what lets one torn stream of a fan-in roll back without
    discarding its siblings' progress.  Without ``torn_only`` everything
    staged is removed.

    Unlinking staged files drops the RFCs their ingest committed; pages
    that reach zero are freed and their FACT entries retired, so a
    rolled-back ingest leaves no trace in the table.
    """
    out = {"stages": 0, "files": 0, "cursors": 0, "kept": 0}
    if not persist.lexists(fs, STAGE_DIR):
        return out
    entries = list(fs.listdir(STAGE_DIR))
    dirs = []
    cursors = set()
    for entry in entries:
        path = f"{STAGE_DIR}/{entry}"
        ino = fs.lookup(path, follow=False)
        if fs.caches[ino].inode.itype == ITYPE_DIR:
            dirs.append(entry)
        else:
            cursors.add(entry)
    for entry in sorted(dirs):
        path = f"{STAGE_DIR}/{entry}"
        cname = f"{entry}.cursor"
        cur = persist.read_state(fs, f"{STAGE_DIR}/{cname}")
        if torn_only and cur is not None and cur.get("active") is False:
            out["kept"] += 1
            cursors.discard(cname)
            continue
        out["files"] += persist.remove_tree(fs, path)
        out["stages"] += 1
        if cname in cursors:
            fs.unlink(f"{STAGE_DIR}/{cname}")
            cursors.discard(cname)
            out["cursors"] += 1
    for cname in sorted(cursors):  # cursors with no stage: always stray
        fs.unlink(f"{STAGE_DIR}/{cname}")
        out["cursors"] += 1
    persist.prune_dir(fs, STAGE_DIR)
    return out


def rollback_torn_ingests(fs, report) -> None:
    """The unclean-mount hook: remove the stages a crash tore.

    Cleanly-paused stages — and all staging after a clean unmount — are
    kept: that is what makes recv resumable and fan-in crash-isolated
    per stream.
    """
    with fs.obs.span("backup.rollback_staging"):
        out = rollback_staging(fs, torn_only=True)
    if out["stages"] or out["cursors"]:
        fs.obs.registry.counter("backup.staging_rollbacks_total").inc(
            out["stages"])
        report.extra["backup_rollback"] = out


def _ingest_file(fs, path: str, size: int, pages: list, fh, index,
                 stats: dict) -> int:
    """Materialize one file from ``(pgoff, fp)`` pairs + stream records.

    Mirrors :func:`repro.dedup.reflink.reflink` step for step: the
    inode stays an orphan (recovery collects it) until the very last
    dentry append publishes the fully-committed file, and a *handled*
    error (bad record, ENOSPC) leaves the target exactly as before — a
    crash reaches the same state through recovery.
    """
    pino, name, _parent = fs._namei(path)
    cpu = ino_cpu(pino, fs.cpus)
    runs: list[list[int]] = []  # [pgoff, block, count]
    fresh: list[int] = []       # pages allocated here, not yet mapped
    with FactTxn(fs.fact) as txn:
        ino = fs._new_inode(ITYPE_FILE, cpu)
        cache = fs.caches[ino]
        try:
            cache.inode.flags |= FLAG_IMMUTABLE
            fs.itable.write(ino, cache.inode)
            copies = Counter(fp_hex for _pgoff, fp_hex in pages)
            canonical: dict[str, Optional[int]] = {}  # None: stored as is
            for pgoff, fp_hex in pages:
                fp, res = bytes.fromhex(fp_hex), None
                if fp_hex not in canonical:
                    # One lookup per distinct fingerprint stages every
                    # page carrying it, as an inline write does.
                    res = txn.lookup(fp)
                    found = res.found
                    if found is not None:
                        txn.share(found.idx, n=copies[fp_hex])
                    canonical[fp_hex] = None if found is None \
                        else found.block
                block = canonical[fp_hex]
                if block is not None:
                    # Dedup hit against the target: no data copy.
                    stats["pages_dup"] += 1
                    extend_runs(runs, pgoff, block)
                    continue
                data = read_record_at(fh, fp_hex, index)
                if len(data) != PAGE_SIZE:
                    raise StreamError(
                        f"record {fp_hex}: {len(data)} B, want a page")
                try:
                    block = fs.allocator.alloc(1, cpu)
                except AllocError as exc:
                    raise NoSpace(str(exc)) from None
                fresh.append(block)
                fs.dev.write(block * PAGE_SIZE, data, nt=True)
                # UC=1; the commit turns it into RFC=1, and the later
                # copies share the claim.  Table full: un-fingerprinted
                # page, single reference, no entry — and so are its copies.
                idx = None if res is None else \
                    txn.claim(fp, block, hint=res)
                if idx is None:
                    stats["pages_unfingerprinted"] += 1
                else:
                    canonical[fp_hex] = block
                    if copies[fp_hex] > 1:
                        txn.share(idx, n=copies[fp_hex] - 1)
                stats["pages_novel"] += 1
                stats["bytes_ingested"] += len(data)
                extend_runs(runs, pgoff, block)
            materialise_shared(fs, ino, runs, size, txn, cpu)
            fresh.clear()  # mapped now: reclaimed through the index below
            fs._append_dentry(pino, name, ino, valid=1, cpu=cpu)
        except (FSError, StreamError):
            for block in fresh:
                fs.allocator.free(block, 1, cpu)
            fs._drop_file_body(ino, cache, cpu)  # as reflink's discard
            raise
    return ino


def receive_backup(fs, stream, resume: bool = True,
                   max_entries: Optional[int] = None) -> dict:
    """Ingest a complete send stream into ``fs``.

    ``stream`` is a path or a readable+seekable binary file object.
    ``max_entries`` stops after that many *new* tree entries, leaving
    the staging and cursor in place (cursor rewritten ``active=False``)
    for a later resume — the pause hook interrupted transfers and
    round-robin replication pumping both use.  Returns a report whose
    ``committed`` says whether the snapshot was atomically published.
    """
    if not hasattr(fs, "fact"):
        raise BackupError("backup recv needs a dedup-enabled filesystem")
    close_fh = isinstance(stream, str)
    fh = open(stream, "rb") if close_fh else stream
    try:
        manifest, header_len = read_header(fh)
        index = index_records(fh, header_len, manifest)
        if not index.complete:
            raise StreamError(
                "stream is truncated (no trailer) — resume the send "
                "before receiving")
        if manifest["page_size"] != PAGE_SIZE:
            raise BackupError(
                f"stream page size {manifest['page_size']} != {PAGE_SIZE}")
        missing = [fp for fp in manifest["novel"]
                   if fp not in index.offsets]
        if missing:
            raise StreamError(
                f"{len(missing)} novel fingerprints have no record")

        name = manifest["snapshot"]
        sid = manifest["stream_id"]
        dst = f"{SNAPSHOT_DIR}/{name}"
        if persist.lexists(fs, dst):
            raise FileExists(dst)

        if not persist.lexists(fs, STAGE_DIR):
            fs.mkdir(STAGE_DIR)
        stage = _stage_path(name, sid)
        cpath = _cursor_path(name, sid)

        # Stale staging for this snapshot under a *different* stream id
        # (the source was deleted and re-created): roll it back first —
        # never splice two streams.  Other snapshots' stages (a fan-in
        # in progress) are untouched.
        for ing in staged_ingests(fs):
            if ing["snapshot"] == name and ing["stage"] != stage:
                persist.remove_tree(fs, ing["stage"])
                if persist.lexists(fs, ing["stage"] + ".cursor"):
                    fs.unlink(ing["stage"] + ".cursor")

        resumed = False
        if persist.lexists(fs, stage):
            cur = persist.read_state(fs, cpath) if resume else None
            if cur is not None and cur.get("stream_id") == sid:
                resumed = True
            else:
                # resume=False, or a garbled cursor: start fresh.
                persist.remove_tree(fs, stage)
                if persist.lexists(fs, cpath):
                    fs.unlink(cpath)
        if not persist.lexists(fs, stage):
            fs.mkdir(stage)

        def write_cursor(applied: int, active: bool) -> None:
            persist.write_state(fs, cpath, {
                "stream_id": sid, "snapshot": name,
                "applied": applied, "active": active})

        # Dirty-mark the stage before touching it: a crash from here on
        # is a torn ingest and the unclean-mount fsck removes the stage.
        write_cursor(0, True)

        stats = {"pages_dup": 0, "pages_novel": 0,
                 "pages_unfingerprinted": 0, "bytes_ingested": 0,
                 "files": 0, "dirs": 0, "symlinks": 0}
        applied = skipped = 0
        stopped = False
        with fs.obs.tracer.use_track("backup"), \
             fs.obs.span("backup.recv", snapshot=name,
                         entries=len(manifest["tree"]), resumed=resumed):
            for ent in manifest["tree"]:
                kind, relpath = ent[0], ent[1]
                path = f"{stage}/{relpath}"
                if persist.lexists(fs, path):
                    skipped += 1  # published by an interrupted run
                    continue
                if max_entries is not None and applied >= max_entries:
                    stopped = True
                    break
                if kind == "dir":
                    fs.mkdir(path)
                    stats["dirs"] += 1
                elif kind == "symlink":
                    fs.symlink(ent[2], path)
                    stats["symlinks"] += 1
                else:
                    _ingest_file(fs, path, ent[2], ent[3], fh, index,
                                 stats)
                    stats["files"] += 1
                applied += 1
                write_cursor(applied + skipped, True)
            committed = False
            if not stopped:
                if not persist.lexists(fs, SNAPSHOT_DIR):
                    fs.mkdir(SNAPSHOT_DIR)
                fs.rename(stage, dst)  # THE commit flag (journal)
                persist.remove_state(fs, cpath)
                committed = True
            else:
                # Clean pause: the stage holds only fully-committed
                # entries, so it survives an unclean mount and resumes.
                write_cursor(applied + skipped, False)
        if committed:
            # Chain metadata (parent/depth/layout) is advisory and
            # recorded *after* the commit rename: a crash between the
            # two leaves a published snapshot with unknown lineage,
            # never a torn commit.
            record_chain(fs, name, parent=manifest.get("base"))
        reg = fs.obs.registry
        reg.counter("backup.recv_pages_dup_total").inc(stats["pages_dup"])
        reg.counter("backup.recv_pages_novel_total").inc(stats["pages_novel"])
        reg.counter("backup.recv_bytes_total").inc(stats["bytes_ingested"])
        return {
            "snapshot": name,
            "stream_id": sid,
            "entries": len(manifest["tree"]),
            "entries_applied": applied,
            "entries_skipped": skipped,
            "resumed": resumed,
            "committed": committed,
            **stats,
        }
    finally:
        if close_fh:
            fh.close()


DeNovaFS.unclean_mount_hooks += (rollback_torn_ingests,)
DeNovaFS.layer_counters += (
    "backup.recv_pages_dup_total", "backup.recv_pages_novel_total",
    "backup.recv_bytes_total", "backup.staging_rollbacks_total")
