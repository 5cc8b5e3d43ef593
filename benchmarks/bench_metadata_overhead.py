"""§III / §IV-C: dedup metadata footprints — DRAM-free vs DRAM-indexed.

Regenerates the paper's space-overhead arithmetic (FACT ≈ 3.2 % NVM with
zero DRAM; NVDedup ≈ 1.6 % NVM plus ≈ 0.6 % of capacity in DRAM) and
cross-checks the *actual* FACT region the filesystem formats against the
closed form.
"""

from _common import emit

from repro.analysis import (
    dram_index_overhead,
    fact_overhead,
    nvdedup_metadata_overhead,
    render_table,
)
from repro.core import Config, Variant, make_fs
from repro.nova import PAGE_SIZE

GB = 1 << 30


def test_metadata_overhead_table():
    doc = {f"{gb} GB": {
        "fact_nvm": fact_overhead(gb * GB),
        "nvdedup_nvm": nvdedup_metadata_overhead(gb * GB),
        "nvdedup_dram_bytes": dram_index_overhead(gb * GB) * gb * GB,
    } for gb in (64, 256, 1024)}
    rows = [[label, f"{d['fact_nvm']:.3%}", "0", f"{d['nvdedup_nvm']:.3%}",
             f"{d['nvdedup_dram_bytes'] / GB:.2f} GB",
             f"{d['nvdedup_dram_bytes'] / (32 * GB):.1%}"]
            for label, d in doc.items()]
    emit("metadata_overhead", doc, render_table(
        ["device", "FACT NVM", "FACT DRAM", "NVDedup NVM",
         "NVDedup DRAM index", "of 32GB server"],
        rows,
        title="Metadata space bills (paper: FACT 3.2% NVM + 0 DRAM; "
              "NVDedup 1.6% NVM + 0.6% in DRAM)",
    ))
    assert rows[0][1].startswith("3.12")     # ~3.2% in the paper
    assert rows[0][3].startswith("1.56")     # ~1.6%
    # 1 TB example: ~6 GB DRAM = 18.75% of a 32 GB server.
    assert rows[2][4].startswith("6.0")
    assert rows[2][5] == "18.8%"


def test_formatted_fact_matches_closed_form():
    """The region mkfs actually reserves equals the paper's rule."""
    fs, _ = make_fs(Variant.IMMEDIATE, Config(device_pages=2 ** 13,
                                              max_inodes=128))
    geo = fs.geo
    # n = ceil(log2(total pages)); 2^(n+1) entries of 64 B.
    assert geo.fact_prefix_bits == 13
    assert geo.fact_entries == 2 ** 14
    measured = geo.fact_bytes / (geo.total_pages * PAGE_SIZE)
    assert abs(measured - fact_overhead(geo.total_pages * PAGE_SIZE)) < 1e-9
    # And the runtime table is DRAM-free: its only volatile state is the
    # rebuildable IAA free list + counters.
    occ = fs.fact.occupancy()
    assert occ["bytes"] == geo.fact_bytes


def test_dwq_dram_footprint_bounded():
    """The one DRAM structure DeNova does keep (the DWQ) stays small
    under immediate mode — §V-B2's conclusion."""
    from repro.workloads import DDMode, run_workload, small_file_job

    fs, dd = make_fs(Variant.IMMEDIATE, Config(device_pages=8192,
                                               max_inodes=512))
    spec = small_file_job(nfiles=400, dup_ratio=0.5).with_(think_ratio=2.5)
    res = run_workload(fs, spec, dd=dd)
    # 16 B per node: peak DRAM for the queue is tiny.
    peak_bytes = res.dwq_peak * 16
    assert peak_bytes < 400 * 16 * 0.25, \
        f"immediate DWQ grew to {res.dwq_peak} nodes"
