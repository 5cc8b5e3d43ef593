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

from repro.nova.inode import ITYPE_DIR, ITYPE_SYMLINK

__all__ = ["fs_state_digest"]


def fs_state_digest(fs) -> str:
    """SHA-1 over the logical filesystem state (schedule-invariant)."""
    h = hashlib.sha1()
    groups: dict[int, str] = {}  # ino -> first path seen (link partition)

    def emit(*parts: object) -> None:
        for p in parts:
            h.update(str(p).encode())
            h.update(b"\0")

    def visit_dir(path: str) -> None:
        names = sorted(fs.listdir(path))
        emit("D", path, ",".join(names))
        for name in names:
            child = f"{path.rstrip('/')}/{name}"
            ino = fs.lookup(child, follow=False)
            st = fs.stat(ino)
            if st.itype == ITYPE_DIR:
                visit_dir(child)
            elif st.itype == ITYPE_SYMLINK:
                emit("L", child, fs.readlink(child))
            else:
                group = groups.setdefault(ino, child)
                content = fs.read(ino, 0, st.size) if st.size else b""
                emit("F", child, st.size, st.links, group,
                     hashlib.sha1(content).hexdigest())

    visit_dir("/")
    return h.hexdigest()
