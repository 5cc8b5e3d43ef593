"""Table III: testbed specification — the simulated analogue.

The paper's testbed is a 2-socket Xeon Gold 5218R with 64 GB of
DRAM-emulated Optane PM on Linux 5.1.  This bench prints the simulated
counterpart (the calibrated cost model standing in for the hardware) and
asserts the calibration anchors that tie the two together.
"""

from _common import emit

from repro.analysis import render_table
from repro.core import Config, TESTBED, Variant, make_fs
from repro.pm import OPTANE_DCPM


def test_table3_testbed():
    doc = {"sha1_bytes_per_ns": 4096 / OPTANE_DCPM.cpu.sha1_cost(4096),
           "pm_read_latency_ns": TESTBED["pm_read_latency_ns"],
           "pm_write_latency_ns": TESTBED["pm_write_latency_ns"],
           "pm_write_gb_s": OPTANE_DCPM.write_bw_bytes_per_ns}
    rows = [
        ["CPU", TESTBED["cpu"]],
        ["SHA-1 throughput", f"{doc['sha1_bytes_per_ns']:.3f} B/ns "
                             f"(~{doc['sha1_bytes_per_ns'] * 1000:.0f} MB/s)"],
        ["PM", TESTBED["pm"]],
        ["PM read latency", f"{doc['pm_read_latency_ns']:.0f} ns"],
        ["PM write latency", f"{doc['pm_write_latency_ns']:.0f} ns"],
        ["PM write stream", f"{doc['pm_write_gb_s']:.1f} GB/s"],
        ["kernel", TESTBED["kernel"]],
        ["concurrency", "deterministic DES (see repro.sim)"],
    ]
    emit("table3_testbed", doc, render_table(
        ["component", "simulated analogue"], rows,
        title="Table III: testbed (paper: 2x Xeon Gold 5218R, 64 GB "
              "DRAM-emulated Optane, Linux 5.1)",
    ))
    # The anchors that make the analogue citable.
    assert 60 <= TESTBED["pm_write_latency_ns"] <= 100   # Table I band
    assert 150 <= TESTBED["pm_read_latency_ns"] <= 350
    mbps = 4096 / OPTANE_DCPM.cpu.sha1_cost(4096) * 1000
    assert 300 <= mbps <= 400  # Table IV's 11.78 us / 4 KB

    # And the default Config yields a mountable system on that testbed.
    fs, _ = make_fs(Variant.IMMEDIATE, Config())
    assert fs.mounted
