"""Table I: read/write latency and endurance of the memory devices.

Regenerates the device-technology table from the latency profiles the
whole simulator is built on, and validates the orderings the paper's
argument rests on (Optane write ≈ DRAM write; Optane read 2-6x DRAM).
"""

from _common import emit

from repro.analysis import render_table
from repro.pm import DRAM, OPTANE_DCPM, PCM, PROFILES, STT_RAM


def test_table1_devices():
    doc = {p.name: {"read_ns": p.read_latency_ns,
                    "write_ns": p.write_latency_ns,
                    "endurance": p.write_endurance,
                    "read_gb_s": p.read_bw_bytes_per_ns,
                    "write_gb_s": p.write_bw_bytes_per_ns}
           for p in (DRAM, PCM, STT_RAM, OPTANE_DCPM)}
    emit("table1_devices", doc, render_table(
        ["device", "read ns", "write ns", "endurance",
         "read GB/s", "write GB/s"],
        [[name, d["read_ns"], d["write_ns"], f"{d['endurance']:.0e}",
          round(d["read_gb_s"], 1), round(d["write_gb_s"], 1)]
         for name, d in doc.items()],
        title="Table I: memory-device latency profiles (model values)",
    ))

    # The relations the paper's argument needs:
    assert OPTANE_DCPM.write_latency_ns <= 3 * DRAM.write_latency_ns
    assert 2 <= OPTANE_DCPM.read_latency_ns / DRAM.read_latency_ns <= 8
    assert OPTANE_DCPM.write_endurance < STT_RAM.write_endurance


def test_all_profiles_usable():
    """Every Table I profile can host a filesystem."""
    from repro.core import Config, Variant, make_fs

    times = {}
    for name in PROFILES:
        fs, _ = make_fs(Variant.IMMEDIATE,
                        Config.with_profile(name, device_pages=1024,
                                            max_inodes=64))
        ino = fs.create("/probe")
        fs.write(ino, 0, b"z" * 4096)
        fs.daemon.drain()
        times[name] = fs.clock.now_ns
    # Slower media must show up as more simulated time.
    assert times["PCM"] > times["DRAM"]
