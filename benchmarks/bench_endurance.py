"""Write endurance: the one axis where inline beats offline (§I, §II-B).

The paper concedes that offline deduplication "does not help improve
write endurance": duplicates hit the media before the daemon removes
them, whereas inline dedup never writes them at all.  Optane's endurance
is 10^6-10^7 cycles (Table I), so the bytes-to-media bill matters.

This bench quantifies the trade DeNova makes: per-variant NVM bytes
written and peak per-line wear for the same logical workload.
"""

from _common import emit

from repro.analysis import render_table
from repro.core import Config, Variant, make_fs, make_device
from repro.nova import PAGE_SIZE
from repro.workloads import DataGenerator

N_FILES = 120
ALPHA = 0.6


def run_variant(variant: Variant):
    cfg = Config(device_pages=4096, max_inodes=N_FILES + 32,
                 track_wear=True)
    dev = make_device(cfg)
    fs, _ = make_fs(variant, cfg, dev=dev)
    # The bill is the workload's: mkfs (which formats the staging region
    # whether or not staging is on) is not write amplification of it.
    bytes0, lines0 = dev.stats.bytes_written, dev.stats.lines_persisted
    gen = DataGenerator(alpha=ALPHA, seed=17, dup_pool_size=4)
    for i in range(N_FILES):
        ino = fs.create(f"/f{i}")
        fs.write(ino, 0, gen.file_data(2 * PAGE_SIZE))
    if hasattr(fs, "daemon"):
        fs.daemon.drain()
    return {
        "nvm_bytes": dev.stats.bytes_written - bytes0,
        "lines_persisted": dev.stats.lines_persisted - lines0,
        "wear_max": dev.wear_max(),
        "saving": (fs.space_stats()["space_saving"]
                   if hasattr(fs, "space_stats") else 0.0),
    }


def build():
    return {v: run_variant(v) for v in (Variant.BASELINE, Variant.INLINE,
                                        Variant.IMMEDIATE)}


def test_endurance_comparison():
    data = build()
    logical = N_FILES * 2 * PAGE_SIZE
    rows = [[v.value,
             round(d["nvm_bytes"] / (1 << 20), 2),
             round(d["nvm_bytes"] / logical, 2),
             d["lines_persisted"],
             d["wear_max"],
             f"{d['saving']:.0%}"]
            for v, d in data.items()]
    emit("endurance", {v.value: d for v, d in data.items()}, render_table(
        ["variant", "NVM MB written", "write amp", "lines persisted",
         "max line wear", "space saved"],
        rows,
        title=f"Endurance: NVM bytes for {N_FILES} x 8 KB files at "
              f"alpha={ALPHA} (logical data "
              f"{logical / (1 << 20):.1f} MB)",
    ))
    base = data[Variant.BASELINE]["nvm_bytes"]
    inline = data[Variant.INLINE]["nvm_bytes"]
    offline = data[Variant.IMMEDIATE]["nvm_bytes"]
    # Inline skips the duplicate writes entirely.
    assert inline < (1 - ALPHA * 0.6) * base, \
        "inline must write substantially less than baseline"
    # Offline writes everything first (the paper's endurance concession):
    # at least the baseline's bytes, plus FACT metadata churn.
    assert offline >= base
    # But both end at the same space savings.
    assert abs(data[Variant.INLINE]["saving"]
               - data[Variant.IMMEDIATE]["saving"]) < 0.05


def test_wear_tracking_attributes_hot_lines():
    """Rewriting one page concentrates wear; CoW spreads it."""
    cfg = Config(device_pages=1024, max_inodes=32, track_wear=True)
    dev = make_device(cfg)
    fs, _ = make_fs(Variant.BASELINE, cfg, dev=dev)
    ino = fs.create("/hot")
    for i in range(50):
        fs.write(ino, 0, bytes([i]) * PAGE_SIZE)
    # CoW means the data lines wear once each; the *inode tail* line is
    # the hot spot (one update per write).
    assert dev.wear_max() >= 50
    per_line_avg = dev.wear_total() / (dev.size // 64)
    assert dev.wear_max() > 10 * per_line_avg
