"""Shared builders for the repl test suite: incremental snapshot chains
ingested into replica images through the backup wire format."""

import io

from repro.backup import receive_backup, send_backup
from repro.dedup import DeNovaFS
from repro.fuzz.gen import GenConfig
from repro.nova import PAGE_SIZE
from repro.pm import DRAM, PMDevice, SimClock


def make_fs(pages=4096, max_inodes=256):
    dev = PMDevice(pages * PAGE_SIZE, model=DRAM, clock=SimClock())
    return DeNovaFS.mkfs(dev, max_inodes=max_inodes)


def page_of(tag):
    return bytes([tag & 0xFF, (tag >> 8) & 0xFF]) * (PAGE_SIZE // 2)


def grow_chain(src, i, pages_per_snap=4, path="/data"):
    """Append ``pages_per_snap`` distinct pages and snapshot ``s<i>``.

    Each generation keeps every earlier page, so snapshot s_i shares its
    whole prefix with s_1..s_{i-1} — the layout that fragments a
    forward-deduped chain tail.
    """
    try:
        ino = src.lookup(path)
    except Exception:
        ino = src.create(path)
    size = src.stat(ino).size
    tag0 = 1 + (i - 1) * pages_per_snap
    src.write(ino, size, b"".join(
        page_of(tag0 + j) for j in range(pages_per_snap)))
    src.daemon.drain()
    src.snapshot(f"s{i}")
    return f"s{i}"


def send_stream(src, name, base=None):
    """Serialize one incremental stream to bytes."""
    buf = io.BytesIO()
    send_backup(src, name, buf, base=base)
    return buf.getvalue()


def recv_stream(dst, stream_bytes):
    return receive_backup(dst, io.BytesIO(stream_bytes))


def build_chain_pair(n, pages_per_snap=4):
    """Source chain s1..s<n> replicated into two identical targets.

    Returns ``(src, dst_a, dst_b, names)`` — the callers relocate one
    target and keep the other as the never-relocated control.
    """
    src = make_fs()
    dst_a = make_fs()
    dst_b = make_fs()
    names = []
    prev = None
    for i in range(1, n + 1):
        name = grow_chain(src, i, pages_per_snap)
        stream = send_stream(src, name, base=prev)
        recv_stream(dst_a, stream)
        recv_stream(dst_b, stream)
        names.append(name)
        prev = name
    return src, dst_a, dst_b, names


def repl_gen_config(alpha: float = 0.55) -> GenConfig:
    """Generator knobs for repl sequences in the *differential*
    scenario: snapshots plus ``relocate``/``restore`` ops enabled, whole-
    device lifecycle ops left to the crash sweep.  Relocation is a
    namespace no-op, so the model stays an exact oracle; subsequent
    generated reads then verify that moving pages never changes
    observable bytes.
    """
    cfg = GenConfig(alpha=alpha)
    cfg.weights = dict(cfg.weights)
    for kind in ("crash", "remount", "snap_delete"):
        cfg.weights[kind] = 0
    cfg.weights["snapshot"] = max(2, cfg.weights.get("snapshot", 0))
    cfg.weights["relocate"] = 4
    cfg.weights["restore"] = 2
    return cfg
