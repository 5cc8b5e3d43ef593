"""The logical state of a filesystem, as one digest.

The determinism claim behind offline dedup is that background workers
*never change observable state*: whatever order clients, shards, and
workers interleave in, the final logical filesystem is identical.  The
schedule permuter in the tests compares this digest across seeded
interleavings; replication compares it across images.

The digest covers *logical* state only: the namespace tree, file
contents, hard-link partitions, and symlink targets.  Inode numbers,
physical page placement, FACT layout, and log geometry are excluded on
purpose — those legitimately vary with the schedule; user-visible bytes
must not.
"""

from __future__ import annotations

import hashlib

from repro.nova.inode import ITYPE_DIR, ITYPE_SYMLINK, ROOT_INO

__all__ = ["fs_state_digest"]


def fs_state_digest(fs) -> str:
    """SHA-1 over the logical filesystem state (schedule-invariant)."""
    h = hashlib.sha1()
    groups: dict[int, str] = {}  # ino -> first path seen (link partition)

    def emit(*parts: object) -> None:
        for p in parts:
            h.update(str(p).encode())
            h.update(b"\0")

    emit("D", "/", ",".join(sorted(fs.caches[ROOT_INO].dentries)))
    for path, ino, cache in fs.walk("/"):
        st = fs.stat(ino)
        if st.itype == ITYPE_DIR:
            emit("D", path, ",".join(sorted(cache.dentries)))
        elif st.itype == ITYPE_SYMLINK:
            emit("L", path, fs.readlink(path))
        else:
            group = groups.setdefault(ino, path)
            content = fs.read(ino, 0, st.size) if st.size else b""
            emit("F", path, st.size, st.links, group,
                 hashlib.sha1(content).hexdigest())
    return h.hexdigest()
