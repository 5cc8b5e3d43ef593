"""Ablation: the inline-dedup penalty across device technologies.

The paper's central historical claim (§II-B, §III): NVDedup-era inline
dedup was designed when NVM writes were assumed ~8x slower than DRAM —
on such devices (PCM-class) hiding T_f behind slow writes worked.  On
Optane DC PM, whose write latency approaches DRAM, the same inline
pipeline is catastrophic.  Sweep the Table I profiles and watch the
inline penalty grow as the device gets faster.
"""

from _common import emit

from repro.analysis import InlineModel, render_table
from repro.core import Config, Variant, make_fs
from repro.pm.latency import PROFILES
from repro.workloads import run_workload, small_file_job

# Ordered slowest-write to fastest-write media.
ORDER = ["PCM", "OptaneDCPM", "STT-RAM", "DRAM"]


def inline_drop(profile: str) -> float:
    """Fractional write-throughput loss of inline dedup vs baseline."""
    tputs = {}
    for variant in (Variant.BASELINE, Variant.INLINE):
        cfg = Config.with_profile(profile, device_pages=4096,
                                  max_inodes=256)
        fs, dd = make_fs(variant, cfg)
        res = run_workload(fs, small_file_job(nfiles=150, dup_ratio=0.5),
                           dd=dd)
        tputs[variant] = res.throughput_mb_s
    return 1 - tputs[Variant.INLINE] / tputs[Variant.BASELINE]


def build():
    out = {}
    for name in ORDER:
        model = PROFILES[name]
        m = InlineModel(model=model)
        out[name] = {
            "write_ns": model.write_latency_ns,
            "ns_per_byte": 1 / model.write_bw_bytes_per_ns,
            "tf_over_tw": m.t_f(4096) / m.t_w(4096),
            "inline_drop": inline_drop(name),
        }
    return out


def test_inline_penalty_grows_with_device_speed():
    data = build()
    emit("ablation_devices", data, render_table(
        ["device", "write ns", "ns/B", "T_f/T_w", "inline drop @a=0.5"],
        [[name, d["write_ns"], round(d["ns_per_byte"], 2),
          round(d["tf_over_tw"], 2), f"{d['inline_drop']:.1%}"]
         for name, d in data.items()],
        title="Ablation: inline-dedup penalty by device technology "
              "(the paper's thesis: fatal on Optane, tolerable on PCM)",
    ))
    by_dev = {name: d["inline_drop"] for name, d in data.items()}
    # The penalty ordering follows write speed.
    assert by_dev["PCM"] < by_dev["OptaneDCPM"] < by_dev["DRAM"]
    # On PCM-class media inline is a moderate tax; on Optane it is
    # catastrophic — the quantitative version of the paper's argument.
    assert by_dev["PCM"] < 0.55
    assert by_dev["OptaneDCPM"] > 0.6
    # T_f/T_w tracks the same story.
    ratios = [d["tf_over_tw"] for d in data.values()]
    assert ratios[0] < ratios[1] < ratios[-1]
