"""repro.repl — reverse-dedup snapshot chains and replication topology.

Three pieces on top of ``repro.backup``:

* :mod:`repro.repl.relocate` — out-of-line reverse dedup (RevDedup):
  budgeted, crash-journaled relocation that keeps the *newest* snapshot
  physically sequential and pushes the indirection onto older ones;
* :mod:`repro.repl.restore` — restore-latest: a digest manifest of a
  snapshot, each file read whole by ``fs.read_runs`` (one device request
  per physical neighbourhood of its runs, in address order: a repeat of
  bytes the call already reads is copied);
* :mod:`repro.repl.topology` — :class:`ReplicationTopology`, a
  round-robin pump for N concurrent send/recv streams (fan-out to N
  replicas, fan-in consolidation), riding the native resumable cursors.

The advisory per-snapshot chain metadata (parent, depth, layout) that
``backup list`` and the CLI report is written by ``backup recv``, so it
lives in :mod:`repro.backup.chain`; this package re-exports it.
See docs/BACKUP.md § "Reverse dedup & topology".
"""

from repro.backup.chain import (
    REPL_DIR,
    chain_info,
    chain_table,
    forget_chain,
    record_chain,
    set_layout,
)
from repro.repl.relocate import (
    INTENT_PATH,
    latest_snapshot,
    relocate_latest,
    replay_intents,
)
from repro.repl.restore import restore_latest, restore_snapshot
from repro.repl.topology import ReplicationTopology, StreamState

__all__ = [
    "REPL_DIR", "INTENT_PATH",
    "record_chain", "chain_info", "chain_table", "set_layout",
    "forget_chain", "latest_snapshot", "relocate_latest",
    "replay_intents", "restore_latest", "restore_snapshot",
    "ReplicationTopology", "StreamState",
]
