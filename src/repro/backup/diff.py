"""Snapshot diff engine: fingerprint-level changed-block computation.

Backups operate on *snapshots* (immutable reflink trees under
``/.snapshots``), never on the live tree, so the block set is stable
while a send runs.  The engine walks one snapshot and represents every
file as its ``(page offset, fingerprint)`` list; the fingerprint of a
page comes straight from FACT through the delete pointer (two NVM
reads — the same path reclaim uses), falling back to an on-the-fly
strong fingerprint for the rare page whose offline dedup has not run
yet (snapshot creation inserts FACT entries eagerly, so this is the
exception, not the rule).

The *diff* of a snapshot against a base snapshot is then pure set
arithmetic on fingerprints: a page needs a data record in the send
stream only if its fingerprint does not occur anywhere in the base.
This is deduplication applied to replication — identical pages inside
the snapshot are shipped once, and pages the receiver's FACT already
holds cost an RFC bump instead of a copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.dedup.fact import FactTxn
from repro.dedup.reflink import SNAPSHOT_DIR
from repro.nova.fs import FileNotFound, FSError
from repro.nova.inode import ITYPE_DIR, ITYPE_SYMLINK
from repro.nova.layout import PAGE_SIZE

__all__ = ["BackupError", "SnapshotDiff", "snapshot_root", "snapshot_tree",
           "snapshot_fingerprints", "diff_snapshots"]


class BackupError(FSError):
    """A backup operation cannot proceed (bad stream, missing base...)."""


def snapshot_root(name: str) -> str:
    return f"{SNAPSHOT_DIR}/{name}"


def _page_fp(fs, txn, block: int, recompute: bool) -> bytes:
    if not recompute:
        ent = txn.entry(block)
        if ent is not None:
            return ent.fp
    data = fs.dev.read(block * PAGE_SIZE, PAGE_SIZE)
    return fs.fingerprinter.strong(data)


def snapshot_tree(fs, name: str,
                  recompute: bool = False) -> tuple[list, dict[str, int]]:
    """One snapshot as ``(tree entries, fp hex -> block)``.

    Tree entries, in deterministic preorder (sorted names, parents
    before children), are JSON-ready lists::

        ["dir", relpath]
        ["symlink", relpath, target]
        ["file", relpath, size, [[pgoff, fp_hex], ...]]

    ``recompute=True`` re-hashes page bytes instead of trusting FACT —
    the deep-verify mode.
    """
    if not hasattr(fs, "fact"):
        raise BackupError("backup needs a dedup-enabled filesystem (FACT)")
    base = snapshot_root(name)
    if not fs.exists(base):
        raise FileNotFound(base)
    entries: list = []
    blocks: dict[str, int] = {}

    for path, _ino, cache in fs.walk(base):
        relpath = path[len(base) + 1:]
        itype = cache.inode.itype
        if itype == ITYPE_DIR:
            entries.append(["dir", relpath])
        elif itype == ITYPE_SYMLINK:
            entries.append(["symlink", relpath, cache.symlink_target])
        else:
            pages = []
            mapped = [(pgoff, cache.index.block_of(pgoff))
                      for pgoff in cache.index.mapped_offsets]
            txn = FactTxn(fs.fact).plan(() if recompute else
                                        (block for _, block in mapped))
            for pgoff, block in mapped:
                fp = _page_fp(fs, txn, block, recompute).hex()
                pages.append([pgoff, fp])
                blocks.setdefault(fp, block)
            entries.append(["file", relpath, cache.inode.size, pages])
    return entries, blocks


def snapshot_fingerprints(fs, name: str) -> set[str]:
    """The set of page fingerprints (hex) a snapshot references."""
    _tree, blocks = snapshot_tree(fs, name)
    return set(blocks)


@dataclass
class SnapshotDiff:
    """The minimal changed-block set of ``snapshot`` relative to ``base``."""

    snapshot: str
    base: Optional[str]
    tree: list
    novel: list[str]             # sorted fp hex that need data records
    blocks: dict[str, int]       # fp hex -> source block address
    total_pages: int             # page references across the tree
    unique_pages: int            # distinct fingerprints in the tree
    base_shared_pages: int       # references satisfied by the base


def diff_snapshots(fs, snapshot: str,
                   base: Optional[str] = None) -> SnapshotDiff:
    """Diff ``snapshot`` against ``base`` (None = full backup)."""
    tree, blocks = snapshot_tree(fs, snapshot)
    base_fps = snapshot_fingerprints(fs, base) if base else set()
    novel = sorted(fp for fp in blocks if fp not in base_fps)
    total = shared = 0
    for ent in tree:
        if ent[0] != "file":
            continue
        for _pgoff, fp in ent[3]:
            total += 1
            if fp in base_fps:
                shared += 1
    return SnapshotDiff(snapshot=snapshot, base=base, tree=tree,
                        novel=novel, blocks=blocks, total_pages=total,
                        unique_pages=len(blocks), base_shared_pages=shared)
