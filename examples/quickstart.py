#!/usr/bin/env python3
"""Quickstart: mount DeNova, write duplicate-heavy data, watch it dedup.

Runs entirely in simulated time on an emulated Optane DC PM device::

    python examples/quickstart.py
"""

from repro import Config, Variant, make_fs
from repro.analysis import render_table


def main() -> None:
    # A 16 MB emulated Optane device, DeNova with an immediate daemon.
    fs, _dd = make_fs(Variant.IMMEDIATE, Config(device_pages=4096,
                                                max_inodes=256))

    # Three "VM images" that share most of their blocks.
    base = b"OS-IMAGE-BLOCK" * 300          # ~4.1 KB -> 2 pages
    fs.mkdir("/vms")
    for name, patch in [("alpha", b""), ("beta", b"cfg=1"),
                        ("gamma", b"cfg=2")]:
        ino = fs.create(f"/vms/{name}.img")
        fs.write(ino, 0, base * 12)          # 24 shared pages
        if patch:
            fs.write(ino, 90_000, patch)     # small unique tail

    print(f"DWQ backlog before dedup: {len(fs.dwq)} write entries")
    t0 = fs.clock.now_ns

    # The deduplication daemon runs in the background on the real system;
    # here we drive it explicitly.
    fs.daemon.drain()

    stats = fs.space_stats()
    nodes = fs.obs.registry.counter("daemon.nodes_processed_total").value
    print(f"daemon processed {nodes} nodes in "
          f"{(fs.clock.now_ns - t0) / 1e6:.2f} ms of simulated time\n")
    print(render_table(
        ["metric", "value"],
        [
            ["logical pages", stats["logical_pages"]],
            ["physical pages", stats["physical_pages"]],
            ["pages saved", stats["pages_saved"]],
            ["dedup ratio", round(stats["dedup_ratio"], 2)],
            ["space saving", f"{stats['space_saving']:.1%}"],
            ["FACT entries", stats["fact"]["entries"]],
            ["FACT bytes", stats["fact"]["bytes"]],
        ],
        title="DeNova space savings",
    ))

    # Data is intact, byte for byte.
    ino = fs.lookup("/vms/beta.img")
    assert fs.read(ino, 0, len(base)) == base
    assert fs.read(ino, 90_000, 5) == b"cfg=1"
    print("\ncontent verification: OK")

    # Clean shutdown persists everything, including the (empty) DWQ.
    fs.unmount()
    print("unmounted cleanly")


if __name__ == "__main__":
    main()
