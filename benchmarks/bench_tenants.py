"""Multi-tenant isolation: noisy-neighbor p99 with and without QoS.

The claim to quantify: with weighted-fair QoS on (DRR admission in
front of the bandwidth slots plus per-tenant DWQ shares), a
well-behaved tenant's p99 write latency under a noisy neighbor
saturating the bounded DWQ stays within 2x its unloaded p99; with QoS
off the same scenario blows its p99 up unboundedly (the aggressor
queues ahead of the victim everywhere).

Three fleet runs on identical hardware/spec, differing only in load
and QoS:

* ``unloaded``   — victim alone (aggressor writes its 1 zipf-tail file);
* ``noisy/off``  — aggressor bursts, QoS disabled (recorded blow-up);
* ``noisy/on``   — aggressor bursts, QoS enabled (isolation bound).
"""

from _common import emit

from repro.analysis import render_table
from repro.core import Config, Variant, make_fs
from repro.workloads.fleet import FleetSpec, run_fleet
from repro.workloads.runner import DDMode

VICTIM_FILES = 16        # well-behaved tenant tn0
BURST_FILES = 48         # noisy tenant tn1's no-think burst
FILE_SIZE = 32 * 1024
#: Victim weight 8 vs aggressor 1: the aggressor's DWQ share collapses
#: to ~2 of 16 slots and the DRR gate grants the victim 8 per round —
#: the configuration an operator would pick for a latency-sensitive
#: tenant sharing a box with batch traffic.
WEIGHTS = {"tn0": 8, "tn1": 1}
QOS_BOUND = 2.0          # acceptance: qos p99 <= 2x unloaded p99


def _spec(noisy: bool) -> FleetSpec:
    # zipf_s=10 pins the aggressor's base share to 1 file, so the
    # victim's own workload is byte-identical across all three runs.
    return FleetSpec(tenants=2, base_files=VICTIM_FILES,
                     file_size=FILE_SIZE, zipf_s=10.0, dup_ratio=0.5,
                     think_ratio=0.5,
                     noisy_tenant=1 if noisy else None,
                     noisy_burst_files=BURST_FILES if noisy else 0,
                     seed=7)


def run_point(noisy: bool, qos: bool) -> dict:
    fs, _dd = make_fs(Variant.DELAYED,
                      Config(device_pages=16384, max_inodes=512, cpus=4))
    # Immediate worker mode: a DWQ stall then measures *queueing behind
    # the neighbor*, not the delayed daemon's 750 ms wakeup timer.
    res = run_fleet(fs, _spec(noisy), dd=DDMode.immediate(), bw_slots=2,
                    workers=1, shards=4, max_shard_depth=4, qos=qos,
                    weights=WEIGHTS)
    victim = res.per_tenant["tn0"]
    return {
        "qos": qos,
        "noisy": noisy,
        "victim_files": victim["files"],
        "victim_p50_ns": victim["p50_ns"],
        "victim_p99_ns": victim["p99_ns"],
        "aggressor_files": res.per_tenant["tn1"]["files"],
        "stalls": res.stalls,
        "total_ms": res.total_ns / 1e6,
    }


def measure() -> dict:
    unloaded = run_point(noisy=False, qos=True)
    noqos = run_point(noisy=True, qos=False)
    qos = run_point(noisy=True, qos=True)
    base = unloaded["victim_p99_ns"] or 1.0
    return {
        "victim_files": VICTIM_FILES,
        "burst_files": BURST_FILES,
        "file_size": FILE_SIZE,
        "unloaded_p99_ns": unloaded["victim_p99_ns"],
        "noqos_p99_ns": noqos["victim_p99_ns"],
        "qos_p99_ns": qos["victim_p99_ns"],
        "noqos_ratio": noqos["victim_p99_ns"] / base,
        "qos_ratio": qos["victim_p99_ns"] / base,
        "qos_stalls": qos["stalls"],
        "points": {"unloaded": unloaded, "noqos": noqos, "qos": qos},
    }


def test_noisy_neighbor_isolation():
    doc = measure()

    # The victim's own work is identical in all three runs.
    pts = doc["points"]
    assert (pts["unloaded"]["victim_files"] == pts["noqos"]["victim_files"]
            == pts["qos"]["victim_files"] == VICTIM_FILES)
    # ISSUE acceptance: QoS keeps the victim within 2x its unloaded p99.
    assert doc["qos_ratio"] <= QOS_BOUND, (
        f"QoS failed to isolate: victim p99 {doc['qos_p99_ns']:.0f} ns is "
        f"{doc['qos_ratio']:.2f}x unloaded ({doc['unloaded_p99_ns']:.0f})")
    # Without QoS the same burst measurably degrades the victim — the
    # recorded blow-up that motivates the scheduler.
    assert doc["noqos_ratio"] > doc["qos_ratio"], (
        f"no-QoS run ({doc['noqos_ratio']:.2f}x) should be worse than "
        f"QoS ({doc['qos_ratio']:.2f}x)")

    emit("tenant_isolation", doc, render_table(
        ["run", "victim p50 us", "victim p99 us", "p99 vs unloaded",
         "aggressor files", "stalls"],
        [[name,
          f"{p['victim_p50_ns'] / 1000:.1f}",
          f"{p['victim_p99_ns'] / 1000:.1f}",
          f"{p['victim_p99_ns'] / (doc['unloaded_p99_ns'] or 1):.2f}x",
          p["aggressor_files"], p["stalls"]]
         for name, p in doc["points"].items()],
        title=f"Noisy-neighbor isolation ({VICTIM_FILES} victim files vs "
              f"{BURST_FILES}-file burst, DWQ depth 4x4)"))
