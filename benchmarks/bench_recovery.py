"""Recovery cost and completeness (§V-C, quantified).

Not a paper table per se — the paper argues recovery qualitatively — but
the repo's crash suites need a cost budget: how long (simulated) does an
unclean DeNova mount take as the filesystem grows, how much work do the
individual recovery passes do, and how much the two fast paths buy —
the clean-unmount checkpoint against the full scan, and per-CPU
parallel replay against sequential.
"""

from _common import emit

from repro.analysis import render_table
from repro.core import Config, Variant, make_fs
from repro.dedup import DeNovaFS
from repro.pm import PMDevice, SimClock
from repro.workloads import DataGenerator


def crashed_fs(nfiles: int, drained_fraction: float):
    fs, _ = make_fs(Variant.IMMEDIATE, Config(device_pages=16384,
                                              max_inodes=nfiles + 32))
    gen = DataGenerator(alpha=0.5, seed=21)
    for i in range(nfiles):
        ino = fs.create(f"/f{i}")
        fs.write(ino, 0, gen.file_data(2 * 4096))
    fs.daemon.drain(limit=int(nfiles * drained_fraction))
    fs.dev.crash()
    fs.dev.recover_view()
    return fs.dev


def recover_once(nfiles: int, drained: float):
    dev = crashed_fs(nfiles, drained)
    t0 = dev.clock.now_ns
    fs = DeNovaFS.mount(dev)
    mount_ns = dev.clock.now_ns - t0
    rep = fs.last_recovery
    return {
        "mount_ms": mount_ns / 1e6,
        "inodes": rep.inodes_recovered,
        "entries": rep.entries_replayed,
        "dwq_rebuilt": rep.extra["dedup"]["dwq_rebuilt"],
        "uc_discarded": rep.extra["dedup"]["uc_discarded"],
        "fs": fs,
    }


def test_recovery_scales_with_filesystem():
    sizes = [50, 150, 400]
    results = [recover_once(n, drained=0.5) for n in sizes]
    rows = [[n, round(r["mount_ms"], 2), r["inodes"], r["entries"],
             r["dwq_rebuilt"]]
            for n, r in zip(sizes, results)]
    doc = {str(n): {k: v for k, v in r.items() if k != "fs"}
           for n, r in zip(sizes, results)}
    emit("recovery_cost", doc, render_table(
        ["files", "unclean mount ms (sim)", "inodes", "entries replayed",
         "DWQ rebuilt"],
        rows,
        title="Unclean-mount recovery cost vs filesystem size",
    ))
    # Linear-ish growth in replayed work.
    assert results[-1]["entries"] > results[0]["entries"]
    assert results[-1]["mount_ms"] < 200, "recovery blew its budget"
    # Half the queue was unprocessed -> about half the nodes come back.
    for n, r in zip(sizes, results):
        assert abs(r["dwq_rebuilt"] - n // 2) <= n // 10


def test_recovered_fs_completes_outstanding_dedup():
    fs = recover_once(120, 0.25)["fs"]
    fs.daemon.drain()
    st = fs.space_stats()
    assert st["space_saving"] > 0.3
    assert len(fs.dwq) == 0


def test_clean_mount_is_cheaper_than_unclean():
    def once(clean: bool):
        fs, _ = make_fs(Variant.IMMEDIATE, Config(device_pages=8192,
                                                  max_inodes=256))
        gen = DataGenerator(alpha=0.5, seed=3)
        for i in range(150):
            ino = fs.create(f"/f{i}")
            fs.write(ino, 0, gen.file_data(4096))
        if clean:
            fs.daemon.drain()
            fs.unmount()
        else:
            fs.dev.crash()
            fs.dev.recover_view()
        t0 = fs.dev.clock.now_ns
        DeNovaFS.mount(fs.dev)
        return fs.dev.clock.now_ns - t0

    # Unclean pays the FACT structural scan + flag scan on top.
    assert once(False) > once(True)


# ---------------------------------------------------------- fast paths


def _built_fs(nfiles=300):
    fs, _ = make_fs(Variant.IMMEDIATE, Config(device_pages=16384,
                                              max_inodes=nfiles + 32))
    gen = DataGenerator(alpha=0.5, seed=11)
    for i in range(nfiles):
        ino = fs.create(f"/f{i}")
        fs.write(ino, 0, gen.file_data(2 * 4096))
    fs.daemon.drain()
    return fs


def _clean_image(tmp_path, nfiles=300):
    fs = _built_fs(nfiles)
    fs.unmount()
    path = tmp_path / "clean.img"
    fs.dev.save_image(path)
    return path


def _crashed_image(tmp_path, nfiles=300):
    fs = _built_fs(nfiles)
    fs.dev.crash()
    fs.dev.recover_view()
    path = tmp_path / "crashed.img"
    fs.dev.save_image(path)
    return path


def _mount_ns(path, **kw):
    dev = PMDevice.load_image(path, clock=SimClock())
    t0 = dev.clock.now_ns
    fs = DeNovaFS.mount(dev, **kw)
    return dev.clock.now_ns - t0, fs


def test_checkpoint_remount_beats_full_scan_5x(tmp_path):
    path = _clean_image(tmp_path)
    ck_ns, ck_fs = _mount_ns(path)
    full_ns, _ = _mount_ns(path, use_checkpoint=False)
    assert "checkpoint" in ck_fs.last_recovery.extra
    speedup = full_ns / ck_ns
    doc = {"files": 300, "checkpoint_ns": ck_ns, "full_scan_ns": full_ns}
    emit("recovery_checkpoint", doc, render_table(
        ["mount path", "clean mount ms (sim)"],
        [["checkpoint", round(ck_ns / 1e6, 3)],
         ["full scan", round(full_ns / 1e6, 3)],
         ["speedup", f"{speedup:.1f}x"]],
        title="Clean remount: checkpoint fast path vs full scan "
              "(300 files)"))
    assert speedup >= 5.0, f"checkpoint remount only {speedup:.1f}x faster"


def test_crash_replay_scales_with_workers(tmp_path):
    path = _crashed_image(tmp_path)
    workers = (1, 2, 4, 8)
    times = {}
    for w in workers:
        ns, fs = _mount_ns(path, recovery_workers=w)
        times[w] = ns
        assert not fs.last_recovery.clean
    doc = {"files": 300, "mount_ns": {str(w): times[w] for w in workers}}
    emit("recovery_workers", doc, render_table(
        ["recovery workers", "unclean mount ms (sim)", "speedup"],
        [[w, round(times[w] / 1e6, 3), f"{times[1] / times[w]:.2f}x"]
         for w in workers],
        title="Crash recovery: per-CPU parallel replay scaling "
              "(300 files)"))
    assert times[2] < times[1]
    assert times[4] < times[2]
    assert times[8] <= times[4]
