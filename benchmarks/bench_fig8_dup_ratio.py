"""Fig. 8: write throughput vs duplicate ratio, all variants.

Paper setup: 4 KB x 1M files (small) and 128 KB x 100k files (large),
single thread, 0.1 ms think per 0.1 ms I/O, duplicate ratio swept.
Claims to reproduce:

* DeNova-Inline loses > 50 % (small) / > 80 % (large) vs baseline NOVA;
* DeNova-Immediate and DeNova-Delayed lose < 1 %;
* inline improves only slightly as the duplicate ratio rises.
"""

import pytest
from _common import emit, rel

from repro.analysis import render_table
from repro.core import Config, Variant, make_fs
from repro.workloads import large_file_job, run_workload, small_file_job

ALPHAS = [0.0, 0.25, 0.5, 0.75]
VARIANTS = [Variant.BASELINE, Variant.INLINE, Variant.IMMEDIATE,
            Variant.DELAYED, Variant.HYBRID]

SMALL_N = 300   # scaled from 1,000,000 (shape is per-file-rate invariant)
LARGE_N = 40    # scaled from 100,000


def run_one(variant: Variant, jobf, nfiles: int, alpha: float):
    pages = 6144 if jobf is small_file_job else 4096
    cfg = Config(device_pages=pages, max_inodes=nfiles + 32,
                 delayed_interval_ms=0.75, delayed_batch=20000)
    fs, dd = make_fs(variant, cfg)
    spec = jobf(nfiles=nfiles, dup_ratio=alpha)
    return run_workload(fs, spec, dd=dd)


def sweep(jobf, nfiles):
    table: dict[Variant, list[float]] = {}
    for variant in VARIANTS:
        table[variant] = [
            run_one(variant, jobf, nfiles, a).throughput_mb_s
            for a in ALPHAS
        ]
    return table


def render(table, workload_name):
    rows = []
    for variant, tputs in table.items():
        base = table[Variant.BASELINE]
        rows.append([variant.value]
                    + [round(t, 1) for t in tputs]
                    + [f"{tputs[i] / base[i]:.1%}" for i in (0, len(ALPHAS) - 1)])
    return render_table(
        ["variant"] + [f"a={a}" for a in ALPHAS]
        + ["vs NOVA @a=0", f"vs NOVA @a={ALPHAS[-1]}"],
        rows,
        title=f"Fig. 8 ({workload_name}): write throughput MB/s vs "
              f"duplicate ratio (1 thread, think time on)",
    )


@pytest.mark.parametrize("jobf,nfiles,name,inline_floor", [
    (small_file_job, SMALL_N, "small 4KB files", 0.50),
    (large_file_job, LARGE_N, "large 128KB files", 0.60),
])
def test_fig8(jobf, nfiles, name, inline_floor):
    table = sweep(jobf, nfiles)
    emit(f"fig8_{jobf.__name__}",
         {"alphas": ALPHAS,
          "throughput_mb_s": {v.value: t for v, t in table.items()}},
         render(table, name))
    base = table[Variant.BASELINE]
    for i, alpha in enumerate(ALPHAS):
        # Offline dedup within 1% of baseline at every ratio.
        for v in (Variant.IMMEDIATE, Variant.DELAYED):
            drop = rel(base[i], table[v][i])
            assert drop < 0.015, \
                f"{v.value} dropped {drop:.1%} at alpha={alpha}"
        # Inline loses big.
        inline_drop = rel(base[i], table[Variant.INLINE][i])
        assert inline_drop / (1 + inline_drop) > inline_floor * 0.8, \
            f"inline only dropped {inline_drop:.1%} at alpha={alpha}"
        # Hybrid pays only the CRC pre-filter in the foreground: it must
        # land strictly between the pure modes — far above inline, and
        # within a bounded slice of baseline.
        hyb = table[Variant.HYBRID][i]
        assert hyb > 1.5 * table[Variant.INLINE][i], \
            f"hybrid not clearly above inline at alpha={alpha}"
        assert hyb <= 1.05 * base[i], \
            f"hybrid above baseline at alpha={alpha}"
        assert hyb >= 0.55 * base[i], \
            f"hybrid at {hyb / base[i]:.1%} of baseline at alpha={alpha}"
    # Inline improves slightly (but only slightly) with duplicate ratio.
    inline = table[Variant.INLINE]
    assert inline[-1] >= inline[0]
    assert inline[-1] < 1.5 * inline[0]


CROSSOVER_ALPHAS = [0.0, 0.25, 0.5, 0.75, 0.9, 1.0]


def run_e2e(variant: Variant, alpha: float, nfiles: int = 200):
    """End-to-end-to-dedup-completion throughput for one point.

    Foreground throughput alone can never show a crossover: delayed
    always wins it (zero foreground hashing) and inline always loses it.
    The honest axis is wall time until the data is both durable *and*
    deduplicated — foreground run plus whatever drain the variant still
    owes afterwards.
    """
    cfg = Config(device_pages=6144, max_inodes=nfiles + 32,
                 delayed_interval_ms=0.75, delayed_batch=20000)
    fs, dd = make_fs(variant, cfg)
    spec = small_file_job(nfiles=nfiles, dup_ratio=alpha)
    res = run_workload(fs, spec, dd=dd)
    # total_ns spans the foreground run *and* the worker pool draining
    # the residual DWQ, so bytes/total is time-to-deduplicated-durable.
    e2e_mb_s = (res.bytes_moved / (1 << 20)) / (res.total_ns / 1e9)
    return e2e_mb_s, fs


def test_fig8_hybrid_crossover():
    """The hybrid tentpole chart: where adaptive beats both pure modes.

    Inline pre-pays SHA-1 for every page; delayed defers all of it to a
    drain the foreground never sees but completion still waits for.
    Hybrid's CRC pre-filter only escalates weak hits to SHA-1, so its
    deferred bill scales with the duplicate ratio: at alpha=0 it owes
    nothing (beats delayed outright), and as alpha -> 1 every page is a
    weak hit and the hybrid curve converges onto pure-delayed from
    above while staying far clear of inline.
    """
    table = {v: [] for v in (Variant.INLINE, Variant.DELAYED,
                             Variant.HYBRID)}
    confirmed = []
    for alpha in CROSSOVER_ALPHAS:
        for v in table:
            mb_s, fs = run_e2e(v, alpha)
            table[v].append(mb_s)
            if v is Variant.HYBRID:
                confirmed.append(fs.hybrid_stats()["weak_hits"])
    inline = table[Variant.INLINE]
    delayed = table[Variant.DELAYED]
    hybrid = table[Variant.HYBRID]
    margins = [(h - d) / d for h, d in zip(hybrid, delayed)]
    doc = {"alphas": CROSSOVER_ALPHAS,
           "e2e_mb_s": {v.value: t for v, t in table.items()},
           "strong_hashed_pages": confirmed}
    emit("fig8_hybrid_crossover", doc, render_table(
        ["alpha", "inline", "delayed", "hybrid", "hybrid vs delayed",
         "strong-hashed pages"],
        [[a, round(inline[i], 1), round(delayed[i], 1),
          round(hybrid[i], 1), f"{margins[i]:+.1%}", confirmed[i]]
         for i, a in enumerate(CROSSOVER_ALPHAS)],
        title="Fig. 8 crossover (small 4KB files): end-to-end MB/s "
              "(foreground + residual dedup drain) vs duplicate ratio",
    ))

    for i, alpha in enumerate(CROSSOVER_ALPHAS):
        # Hybrid never loses to either pure mode end-to-end...
        assert hybrid[i] >= 0.995 * delayed[i], \
            f"hybrid under delayed at alpha={alpha}"
        assert hybrid[i] > 1.4 * inline[i], \
            f"hybrid not clear of inline at alpha={alpha}"
    # ...wins outright where duplicates are scarce (nothing deferred)...
    assert margins[0] > 0.25, f"no low-alpha win: {margins[0]:+.1%}"
    # ...and converges onto pure-delayed as every page needs SHA-1.
    assert margins[-1] < 0.02, \
        f"hybrid did not converge with delayed at alpha=1: " \
        f"{margins[-1]:+.1%}"
    # The deferred strong-hash bill really does scale with alpha.
    assert confirmed[0] == 0
    assert confirmed[-1] >= 100  # alpha=1: ~all of the 200 pages confirm


def test_fig8_shape_is_scale_invariant():
    """The scaled-down file counts are legitimate: the inline-vs-NOVA
    throughput ratio is a per-file quantity, stable across scales."""
    def ratio_at(nfiles):
        base = run_one(Variant.BASELINE, small_file_job, nfiles, 0.5)
        inline = run_one(Variant.INLINE, small_file_job, nfiles, 0.5)
        return inline.throughput_mb_s / base.throughput_mb_s

    r_small, r_large = ratio_at(100), ratio_at(400)
    assert abs(r_small - r_large) < 0.03, \
        f"inline/NOVA ratio drifted with scale: {r_small:.3f} vs " \
        f"{r_large:.3f}"


def test_fig8_space_savings_scale_with_alpha():
    """The other half of the trade: savings actually materialize."""
    savings = [run_one(Variant.IMMEDIATE, small_file_job, 200,
                       alpha).space["space_saving"] for alpha in ALPHAS]
    assert savings[0] == 0.0
    for lo, hi in zip(savings, savings[1:]):
        assert hi >= lo
    assert savings[-1] >= 0.55  # alpha=0.75 ~> 70%+ saved
