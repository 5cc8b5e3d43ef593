"""Fig. 11: write vs overwrite throughput, NOVA vs DeNova-Immediate.

Paper claims to reproduce (normalized to each system's write throughput):

* baseline NOVA overwrites are slightly *faster* than writes (+1 %
  large, +3 % small) — no inode/dentry creation;
* DeNova overwrites are *slower* than writes (-5 % small, -18 % large):
  reclaiming each CoW-displaced page walks FACT through the delete
  pointer and pays the cache-line-flushed count updates, with large
  files paying more flushes per file.
"""

import pytest
from _common import emit

from repro.analysis import render_table
from repro.core import Config, Variant, make_fs
from repro.workloads import Mode, large_file_job, run_workload, small_file_job
from repro.workloads.runner import prepopulate


def write_vs_overwrite(variant, jobf, nfiles):
    cfg = Config(device_pages=8192, max_inodes=nfiles + 32)
    fs, dd = make_fs(variant, cfg)
    spec = jobf(nfiles=nfiles, dup_ratio=0.0)
    w = run_workload(fs, spec, dd=dd)
    # Let the daemon finish so overwrite reclaims deduplicated pages.
    if hasattr(fs, "daemon"):
        fs.daemon.drain()
    inos = [fs.lookup(f"/t0/f{i}") for i in range(nfiles)]
    o = run_workload(fs, spec.with_(mode=Mode.OVERWRITE, seed=99), dd=dd,
                     inos=inos)
    return w.throughput_mb_s, o.throughput_mb_s


def build():
    out = {}
    for jobf, nfiles, label in ((small_file_job, 250, "small"),
                                (large_file_job, 40, "large")):
        for variant in (Variant.BASELINE, Variant.IMMEDIATE):
            w, o = write_vs_overwrite(variant, jobf, nfiles)
            out[(label, variant)] = (w, o, o / w)
    return out


def test_fig11_overwrite():
    data = build()
    rows = [[label, variant.value, round(w, 1), round(o, 1),
             f"{ratio - 1:+.1%}"]
            for (label, variant), (w, o, ratio) in data.items()]
    doc = {f"{label}/{variant.value}": {"write_mb_s": w,
                                        "overwrite_mb_s": o}
           for (label, variant), (w, o, _ratio) in data.items()}
    emit("fig11_overwrite", doc, render_table(
        ["workload", "variant", "write MB/s", "overwrite MB/s",
         "overwrite vs write"],
        rows,
        title="Fig. 11: overwrite vs write (paper: NOVA +1..3%, "
              "DeNova -5% small / -18% large)",
    ))

    for label in ("small", "large"):
        nova_ratio = data[(label, Variant.BASELINE)][2]
        deno_ratio = data[(label, Variant.IMMEDIATE)][2]
        # NOVA: overwrite at least as fast as write.
        assert nova_ratio >= 0.995, f"{label}: NOVA overwrite regressed"
        # DeNova: overwrite visibly slower than its own write.
        assert deno_ratio < nova_ratio, label
        assert deno_ratio < 0.99, \
            f"{label}: DeNova reclaim cost invisible ({deno_ratio:.3f})"
    # The paper's asymmetry: large files lose more than small files.
    small_drop = 1 - data[("small", Variant.IMMEDIATE)][2]
    large_drop = 1 - data[("large", Variant.IMMEDIATE)][2]
    assert large_drop > small_drop, (small_drop, large_drop)


def test_fig11_nova_create_overhead_explains_gap():
    """The +small% for NOVA comes from create-time work; verify directly
    by measuring a create-only job's cost share."""
    fs, dd = make_fs(Variant.BASELINE, Config(device_pages=4096,
                                              max_inodes=512))
    spec = small_file_job(nfiles=100)
    w = run_workload(fs, spec, dd=dd)
    inos = [fs.lookup(f"/t0/f{i}") for i in range(100)]
    o = run_workload(fs, spec.with_(mode=Mode.OVERWRITE, seed=4),
                     dd=dd, inos=inos)
    # Overwrite does strictly fewer operations -> lower mean latency.
    assert o.mean_op_latency_us < w.mean_op_latency_us
