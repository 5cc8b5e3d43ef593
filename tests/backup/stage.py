"""What a test asks of an image's recv staging area: the stage and the
cursor that hold one snapshot's ingest."""

from typing import Optional

from repro.backup import STAGE_DIR, staged_ingests
from repro.nova import persist


def stage_cursor(fs, name: str) -> Optional[dict]:
    """The in-image recv cursor for snapshot ``name`` (None if absent).

    Stages are keyed by ``name@stream12``, so this scans the staging
    directory for a cursor whose recorded snapshot matches.
    """
    if not persist.lexists(fs, STAGE_DIR):
        return None
    for entry in sorted(fs.listdir(STAGE_DIR)):
        if not entry.endswith(".cursor"):
            continue
        cur = persist.read_state(fs, f"{STAGE_DIR}/{entry}")
        if cur is not None and cur.get("snapshot") == name:
            return cur
    return None


def stage_path_for(fs, name: str) -> Optional[str]:
    """The staging directory currently holding snapshot ``name``."""
    for ing in staged_ingests(fs):
        if ing["snapshot"] == name:
            return ing["stage"]
    return None
