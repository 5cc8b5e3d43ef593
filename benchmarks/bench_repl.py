"""Reverse dedup: restore-latest stays flat as the chain grows.

Forward fingerprint-level ingest (``repro.backup``) keeps the *oldest*
copy of every shared page, so the newest snapshot — the production
restore target — fragments as the chain grows: each ingest leaves the
latest file stitched together from pages laid down across all prior
rounds.  RevDedup inverts the indirection: an out-of-line relocation
pass (``repro.repl.relocate_latest``) re-sequentializes the newest
snapshot after every ingest and pushes the fragmentation onto the old
snapshots nobody restores.

The claim quantified here (the ISSUE's acceptance bar): across chain
lengths 1..8, restore-latest on the relocated target degrades by at
most **1.15x** (simulated elapsed time, relative to chain length 1)
while the forward target degrades measurably more — its physical run
count, and with it the per-request overhead, grows with every round.
"""

import io

from _common import emit

from repro.analysis import render_table
from repro.backup import receive_backup, send_backup
from repro.dedup import DeNovaFS
from repro.nova import PAGE_SIZE
from repro.pm import DRAM, PMDevice, SimClock
from repro.repl import relocate_latest, restore_snapshot

N_PAGES = 64     # data pages in the replicated file
STRIDE = 4       # each round rewrites every 4th page (rotating offset)
CHAIN_LEN = 8


def make_fs(pages=16384):
    dev = PMDevice(pages * PAGE_SIZE, model=DRAM, clock=SimClock())
    return DeNovaFS.mkfs(dev, max_inodes=256)


def distinct_page(i: int) -> bytes:
    return i.to_bytes(4, "little") * (PAGE_SIZE // 4)


def measure() -> list:
    """Grow one source chain; replicate each link to a forward-only and
    a relocated target; restore-latest on both after every link."""
    src = make_fs()
    ino = src.create("/f")
    src.write(ino, 0, b"".join(distinct_page(i) for i in range(N_PAGES)))
    src.daemon.drain()

    fwd, rev = make_fs(), make_fs()
    rows = []
    prev = None
    for length in range(1, CHAIN_LEN + 1):
        if length > 1:
            # Rotate the rewritten stripe so the latest file mixes page
            # ages — the fragmentation driver for forward ingest.
            for p in range(N_PAGES):
                if p % STRIDE == length % STRIDE:
                    src.write(ino, p * PAGE_SIZE,
                              distinct_page(1000 * length + p))
            src.daemon.drain()
        name = f"s{length}"
        src.snapshot(name)
        buf = io.BytesIO()
        send_backup(src, name, buf, base=prev)
        stream = buf.getvalue()
        receive_backup(fwd, io.BytesIO(stream))
        receive_backup(rev, io.BytesIO(stream))
        while not relocate_latest(rev)["done"]:
            pass
        f = restore_snapshot(fwd, name)
        r = restore_snapshot(rev, name)
        rows.append({
            "chain_len": length,
            "fwd_requests": f["requests"],
            "rev_requests": r["requests"],
            "fwd_ns": f["elapsed_ns"],
            "rev_ns": r["elapsed_ns"],
        })
        prev = name
    for row in rows:
        row["fwd_ratio"] = round(row["fwd_ns"] / rows[0]["fwd_ns"], 4)
        row["rev_ratio"] = round(row["rev_ns"] / rows[0]["rev_ns"], 4)
    return rows


def test_restore_latest_flat_under_reverse_dedup():
    rows = measure()
    last = rows[-1]
    # The acceptance bar: reverse dedup holds restore-latest within
    # 1.15x of the length-1 chain; forward degrades measurably.
    assert last["rev_ratio"] <= 1.15, rows
    assert last["fwd_ratio"] > last["rev_ratio"], rows
    assert last["fwd_requests"] > last["rev_requests"], rows
    # Relocation reaches the floor: one read request for the single
    # hole-free file, at every chain length.
    assert all(r["rev_requests"] == 1 for r in rows), rows
    emit("repl_restore_chain", {"rows": rows}, render_table(
        ["chain len", "fwd reqs", "rev reqs", "fwd ns (sim)",
         "rev ns (sim)", "fwd x", "rev x"],
        [[r["chain_len"], r["fwd_requests"], r["rev_requests"],
          r["fwd_ns"], r["rev_ns"], f"{r['fwd_ratio']:.2f}",
          f"{r['rev_ratio']:.2f}"] for r in rows],
        title=f"Restore-latest vs chain length ({N_PAGES} pages, "
              f"stripe rewrite 1/{STRIDE} per link)"))
