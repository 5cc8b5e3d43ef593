"""Restore-latest: read the newest snapshot through the physical layout.

The point of reverse dedup is this read path.  A restore streams whole
files through ``fs.read_runs`` (``fs.read``'s device side), which plans
one device request per physical neighbourhood of a file's runs, in
address order (a repeat of bytes the call reads is copied, not read).
A forward-deduped chain tail fragments into single-page runs, read
together where their blocks continue each other in older snapshots; a
relocated (reverse) tail is one run per file.  That difference is what
``benchmarks/bench_repl.py`` plots against chain length.

The restore emits a digest manifest (path → sha256, size) rather than
materializing the tree — what a verification-style restore target needs
and what the equivalence tests compare against ``fs.read``.
"""

from __future__ import annotations

import hashlib

from repro.dedup.denova import DeNovaFS
from repro.dedup.reflink import SNAPSHOT_DIR
from repro.nova.inode import ITYPE_FILE
from repro.pm.clock import FS_PER_NS
from repro.repl.relocate import latest_snapshot

__all__ = ["restore_latest", "restore_snapshot"]


def _restore_file(fs, path: str) -> tuple[str, int, int]:
    """Read one file whole; returns (sha256, bytes, device requests)."""
    cache = fs.caches[fs.lookup(path, follow=False)]
    reads = fs.dev.stats.reads
    data = fs.read_runs(cache, 0, cache.inode.size)
    return (hashlib.sha256(data).hexdigest(), len(data),
            fs.dev.stats.reads - reads)


def restore_snapshot(fs, name: str) -> dict:
    """Digest-restore snapshot ``name``; one request per neighbourhood.

    Timing comes off the DES clock, so the reported wall time reflects
    the modeled request/bandwidth costs.
    """
    root = f"{SNAPSHOT_DIR}/{name}"
    fs.lookup(root, follow=False)  # FSError if absent
    manifest: dict[str, dict] = {}
    stats = {"files": 0, "bytes": 0, "requests": 0}
    t0 = fs.clock.now_fs

    with fs.obs.span("repl.restore", snapshot=name):
        for path, _ino, cache in fs.walk(root):
            if cache.inode.itype != ITYPE_FILE:
                continue
            digest, size, requests = _restore_file(fs, path)
            manifest[path[len(root) + 1:]] = {"sha256": digest, "size": size}
            stats["files"] += 1
            stats["bytes"] += size
            stats["requests"] += requests
    elapsed = (fs.clock.now_fs - t0) / FS_PER_NS
    fs.obs.registry.counter("repl.restore_runs_total").inc(stats["requests"])
    fs.obs.registry.counter("repl.restore_bytes_total").inc(stats["bytes"])
    gbps = (stats["bytes"] / elapsed) if elapsed else 0.0
    return {"snapshot": name, "manifest": manifest, "elapsed_ns": elapsed,
            "throughput_gbps": gbps, **stats}


def restore_latest(fs) -> dict:
    """Restore the chain's newest snapshot (the production target)."""
    name = latest_snapshot(fs)
    if name is None:
        return {"snapshot": None, "manifest": {}, "files": 0, "bytes": 0,
                "requests": 0, "elapsed_ns": 0, "throughput_gbps": 0.0}
    return restore_snapshot(fs, name)


DeNovaFS.layer_counters += ("repl.restore_runs_total",
                            "repl.restore_bytes_total")
