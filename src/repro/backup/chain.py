"""Snapshot chain metadata: parent links, depth, physical layout.

Each received snapshot records one tiny JSON file,
``/.repl/<name>.chain`` — ``{"parent": <name|None>, "layout":
"forward"|"reverse"}``.  The metadata is *advisory*: restore and
deletion never depend on it, so it is written after the commit rename
(a crash in between leaves a published snapshot with unknown lineage,
which :func:`chain_table` reports as a depth-1 root).  ``layout``
flips to ``reverse`` once the relocation pass has sequentialized the
snapshot; ``repl`` and ``backup list`` use it to report chain health.

Locally-taken snapshots (``fs.snapshot``) record no chain file — only
``backup recv`` and :func:`repro.repl.relocate.relocate_latest` (for
snapshots that already have one) touch this namespace, which keeps the
root namespace byte-identical for workloads that never replicate.
Deleting a snapshot forgets its chain file: :func:`forget_chain` is a
:attr:`DeNovaFS.snapshot_delete_hooks <repro.dedup.denova.DeNovaFS.
snapshot_delete_hooks>` entry from import on.
"""

from __future__ import annotations

from typing import Optional

from repro.dedup.denova import DeNovaFS
from repro.dedup.reflink import REPL_DIR, list_snapshots
from repro.nova import persist

__all__ = ["REPL_DIR", "record_chain", "chain_info", "chain_table",
           "set_layout", "forget_chain"]

LAYOUT_FORWARD = "forward"
LAYOUT_REVERSE = "reverse"


def _chain_path(name: str) -> str:
    return f"{REPL_DIR}/{name}.chain"


def record_chain(fs, name: str, parent: Optional[str] = None) -> None:
    """Record lineage for snapshot ``name`` (recv commit hook); a
    received chain starts out forward."""
    persist.write_state(fs, _chain_path(name),
                        {"parent": parent, "layout": LAYOUT_FORWARD},
                        mkparent=True)


def chain_info(fs, name: str) -> Optional[dict]:
    """``{"parent", "layout"}`` for ``name`` (None if never recorded)."""
    return persist.read_state(fs, _chain_path(name))


def set_layout(fs, name: str, layout: str) -> bool:
    """Flip ``name``'s recorded layout; False if it has no chain file.

    Deliberately does *not* create a chain file: local snapshots stay
    out of the ``/.repl`` namespace even after a relocation pass.
    """
    info = chain_info(fs, name)
    if info is None:
        return False
    persist.write_state(fs, _chain_path(name),
                        {"parent": info.get("parent"), "layout": layout})
    return True


def forget_chain(fs, name: str) -> None:
    """Drop ``name``'s chain metadata (snapshot deletion hook)."""
    persist.remove_state(fs, _chain_path(name), missing_ok=True)


def chain_table(fs) -> list[dict]:
    """Per-snapshot ``{"snapshot", "parent", "depth", "layout"}`` rows.

    Ordered by the :func:`list_snapshots` contract (lexicographic).
    Depth is 1 for a chain root; a parent that is itself unknown (local
    snapshot, pruned ancestor) terminates the walk, and a malformed
    parent cycle is cut rather than looped.
    """
    rows = []
    for name in list_snapshots(fs):
        info = chain_info(fs, name) or {}
        depth = 1
        seen = {name}
        parent = info.get("parent")
        hop = parent
        while hop is not None and hop not in seen:
            seen.add(hop)
            depth += 1
            hop = (chain_info(fs, hop) or {}).get("parent")
        rows.append({
            "snapshot": name,
            "parent": parent,
            "depth": depth,
            "layout": info.get("layout", LAYOUT_FORWARD),
        })
    return rows


DeNovaFS.snapshot_delete_hooks += (forget_chain,)
