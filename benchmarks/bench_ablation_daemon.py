"""Ablation: dedup daemon capacity vs write arrival rate.

Offline dedup only stays "free" while the single-threaded DD keeps up
with the foreground (§IV-B2's (n, m) tunables exist for exactly this).
Sweep the arrival rate (via think time) and measure the backlog the DWQ
accumulates, the lingering p90, and how long past the foreground the
daemon needs to drain — the capacity-planning curve for deploying
DeNova.
"""

from _common import emit

from repro.analysis import percentile, render_table
from repro.core import Config, Variant, make_fs
from repro.workloads import DDMode, run_workload, small_file_job

THINK_RATIOS = [0.0, 1.0, 2.5, 5.0]  # 0 = writes arrive back to back
N_FILES = 300


def run_ratio(think_ratio: float):
    fs, _ = make_fs(Variant.IMMEDIATE, Config(device_pages=8192,
                                              max_inodes=N_FILES + 32))
    spec = small_file_job(nfiles=N_FILES, dup_ratio=0.5).with_(
        think_ratio=think_ratio)
    res = run_workload(fs, spec, dd=DDMode.immediate())
    lag = (res.total_ns - res.foreground_ns) / 1e6
    return {
        "think": think_ratio,
        "dwq_peak": res.dwq_peak,
        "p90_ms": percentile(res.lingering_ns, 0.9) / 1e6,
        "drain_lag_ms": lag,
        "fg_ms": res.foreground_ns / 1e6,
        "dd_busy_ms": res.dd_busy_ns / 1e6,
    }


def test_daemon_capacity_curve():
    results = [run_ratio(r) for r in THINK_RATIOS]
    rows = [[r["think"], r["dwq_peak"], round(r["p90_ms"], 3),
             round(r["drain_lag_ms"], 2), round(r["fg_ms"], 2),
             round(r["dd_busy_ms"], 2)]
            for r in results]
    emit("ablation_daemon", {"rows": results}, render_table(
        ["think ratio", "DWQ peak", "lingering p90 ms", "drain lag ms",
         "foreground ms", "DD busy ms"],
        rows,
        title="Ablation: daemon capacity vs arrival rate "
              "(single DD thread, immediate mode)",
    ))
    # Faster arrivals -> deeper backlog and longer post-run drain.
    peaks = [r["dwq_peak"] for r in results]
    assert peaks[0] > peaks[-1] * 3, peaks
    lags = [r["drain_lag_ms"] for r in results]
    assert lags[0] > lags[-1]
    # With enough think time the daemon keeps up: trivial backlog.
    assert results[-1]["dwq_peak"] <= 3
    assert results[-1]["drain_lag_ms"] < 0.2
    # Regardless of backlog, every node was eventually processed and the
    # same savings materialized (offline dedup degrades gracefully).
    # (run_workload asserts dd drain implicitly via total_ns >= fg.)


def test_delayed_batch_must_cover_arrivals():
    """Delayed(n, m): if m < one interval's arrivals, the backlog grows
    without bound during the run; if m covers it, the queue stays near
    one interval's worth — the sizing rule for (n, m)."""
    def run(m):
        fs, _ = make_fs(Variant.IMMEDIATE, Config(device_pages=8192,
                                                  max_inodes=N_FILES + 32))
        spec = small_file_job(nfiles=N_FILES, dup_ratio=0.5).with_(
            think_ratio=2.5)
        res = run_workload(fs, spec, dd=DDMode.delayed(1.0, m))
        return res.dwq_peak

    # ~48 arrivals/ms at think 2.5 -> interval of 1 ms holds ~48 nodes.
    starved, covered = run(10), run(200)
    assert starved > 2 * covered, (starved, covered)
