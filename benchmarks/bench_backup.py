"""Backup replication costs: send size and ingest speed vs duplication.

Two claims to quantify, both direct corollaries of fingerprint-level
replication (the backup subsystem applies the paper's dedup machinery
across images instead of within one):

* an incremental send of a snapshot sharing k% of its blocks with the
  base ships only ~(100-k)% of the data — stream size scales with the
  *novel* fraction, not the tree size;
* recv throughput rises with the fraction of incoming pages the
  target's FACT already holds, because a duplicate page costs an RFC
  bump instead of a data copy.
"""

import io

from _common import emit

from repro.analysis import render_table
from repro.backup import receive_backup, send_backup, verify_snapshot
from repro.dedup import DeNovaFS
from repro.nova import PAGE_SIZE
from repro.pm import DRAM, PMDevice, SimClock

N_PAGES = 64                      # data pages per snapshot
SHARE = [0, 25, 50, 75, 90]       # k: % of blocks shared with the base


def make_fs(pages=16384):
    dev = PMDevice(pages * PAGE_SIZE, model=DRAM, clock=SimClock())
    return DeNovaFS.mkfs(dev, max_inodes=256)


def distinct_page(i: int) -> bytes:
    """Deterministic, pairwise-distinct page payloads."""
    return i.to_bytes(4, "little") * (PAGE_SIZE // 4)


def _send_size(fs, name, base=None):
    buf = io.BytesIO()
    report = send_backup(fs, name, buf, base=base)
    return len(buf.getvalue()), report


def incremental_case(k: int):
    """s1 with N distinct pages; s2 shares k% of them with s1."""
    fs = make_fs()
    ino = fs.create("/f")
    fs.write(ino, 0, b"".join(distinct_page(i) for i in range(N_PAGES)))
    fs.daemon.drain()
    fs.snapshot("s1")
    changed = N_PAGES - round(N_PAGES * k / 100)
    for i in range(changed):
        fs.write(ino, i * PAGE_SIZE, distinct_page(1000 + i))
    fs.daemon.drain()
    fs.snapshot("s2")
    full_size, _ = _send_size(fs, "s2")
    incr_size, rep = _send_size(fs, "s2", base="s1")
    return {
        "share_pct": k,
        "changed_pages": changed,
        "novel_records": rep["records_total"],
        "base_shared_pages": rep["base_shared_pages"],
        "full_bytes": full_size,
        "incr_bytes": incr_size,
        "size_ratio": incr_size / full_size,
    }


def test_incremental_send_scales_with_novel_fraction():
    rows = [incremental_case(k) for k in SHARE]
    for r in rows:
        # The (100-k)% property, exact at page granularity.
        assert r["novel_records"] == r["changed_pages"]
        assert r["base_shared_pages"] == N_PAGES - r["changed_pages"]
        want = r["changed_pages"] / N_PAGES
        assert abs(r["size_ratio"] - want) < 0.15  # header+trailer slack
    emit("backup_incremental", {"rows": rows}, render_table(
        ["shared %", "novel records", "full B", "incr B", "incr/full"],
        [[r["share_pct"], r["novel_records"], r["full_bytes"],
          r["incr_bytes"], f"{r['size_ratio']:.2f}"] for r in rows],
        title=f"Incremental send size vs base-shared fraction "
              f"({N_PAGES} pages)"))


def recv_case(k: int):
    """Ingest N pages into a target already holding k% of them."""
    src = make_fs()
    ino = src.create("/f")
    src.write(ino, 0, b"".join(distinct_page(i) for i in range(N_PAGES)))
    src.daemon.drain()
    src.snapshot("s1")
    buf = io.BytesIO()
    send_backup(src, "s1", buf)
    buf.seek(0)

    dst = make_fs()
    held = round(N_PAGES * k / 100)
    if held:
        g = dst.create("/warm")
        dst.write(g, 0, b"".join(distinct_page(i) for i in range(held)))
        dst.daemon.drain()
    t0 = dst.dev.clock.now_ns
    rep = receive_backup(dst, buf)
    recv_ns = dst.dev.clock.now_ns - t0
    buf.seek(0)
    assert verify_snapshot(dst, buf)["ok"]

    t0 = dst.dev.clock.now_ns
    r = dst.lookup("/.snapshots/s1/f")
    data = dst.read(r, 0, N_PAGES * PAGE_SIZE)
    restore_ns = dst.dev.clock.now_ns - t0
    assert len(data) == N_PAGES * PAGE_SIZE
    mb = N_PAGES * PAGE_SIZE / 1e6
    return {
        "held_pct": k,
        "pages_dup": rep["pages_dup"],
        "pages_novel": rep["pages_novel"],
        "recv_ms": recv_ns / 1e6,
        "recv_mb_s": mb / (recv_ns / 1e9),
        "restore_mb_s": mb / (restore_ns / 1e9),
    }


def test_recv_throughput_rises_with_target_dup():
    rows = [recv_case(k) for k in SHARE]
    for r in rows:
        assert r["pages_dup"] == round(N_PAGES * r["held_pct"] / 100)
        assert r["pages_novel"] == N_PAGES - r["pages_dup"]
    # More duplicate hits => strictly less data movement => faster.
    assert rows[-1]["recv_ms"] < rows[0]["recv_ms"]
    emit("backup_recv_throughput", {"rows": rows}, render_table(
        ["target holds %", "dup", "novel", "recv ms (sim)", "recv MB/s",
         "restore MB/s"],
        [[r["held_pct"], r["pages_dup"], r["pages_novel"],
          f"{r['recv_ms']:.2f}", f"{r['recv_mb_s']:.0f}",
          f"{r['restore_mb_s']:.0f}"] for r in rows],
        title=f"Ingest throughput vs duplicate ratio ({N_PAGES} pages)"))
