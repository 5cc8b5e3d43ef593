"""repro.backup — dedup-aware incremental snapshot replication.

Ships snapshots between device images the way FACT already ships pages
between files: by fingerprint.  ``send`` serializes the minimal
changed-block set of a snapshot (relative to a base snapshot, or empty
for a full backup) into a CRC-protected stream file; ``recv`` ingests
it into another image, bumping RFCs for pages the target already holds
and copying only genuinely novel ones, then publishes the snapshot with
a single atomic rename.  Both directions resume from persisted cursors.
See ``docs/BACKUP.md`` for the wire format and the commit/rollback
protocol.
"""

from repro.backup.diff import (
    BackupError,
    SnapshotDiff,
    diff_snapshots,
    snapshot_fingerprints,
    snapshot_root,
    snapshot_tree,
)
from repro.backup.recv import (
    STAGE_DIR,
    receive_backup,
    rollback_staging,
    staged_ingests,
)
from repro.backup.send import send_backup, send_cursor_path
from repro.backup.stream import FORMAT, StreamError, index_records, read_header
from repro.backup.verify import verify_snapshot, verify_stream

__all__ = [
    "BackupError", "SnapshotDiff", "StreamError", "FORMAT", "STAGE_DIR",
    "diff_snapshots", "snapshot_tree", "snapshot_fingerprints",
    "snapshot_root", "send_backup", "send_cursor_path", "receive_backup",
    "rollback_staging", "staged_ingests",
    "verify_stream", "verify_snapshot", "read_header", "index_records",
]
