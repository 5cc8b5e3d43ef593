"""The six workloads: set-up, timed section, verification.

Every workload is closed loop: each simulated client issues its next
operation only when the previous one has completed (think ratio as in
§V-B1 of the paper), and every write is synchronous (clwb + sfence, as
NOVA does).  The system has no read cache, so there is no fits / does
not fit pair.

One pass = set-up, the timed section (the tracer's root span), then the
output and durability check, which also yields the read-back and
recovery numbers.  All inputs derive from the seed through the
program's own seeded generators; the program receives nothing else.
"""

from __future__ import annotations

import hashlib
import re
import resource
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Callable

from repro.core import Config, Variant, make_fs
from repro.failure import invariants
from repro.fuzz import FuzzConfig, FuzzRunner
from repro.nova.fs import FSError
from repro.obs import series_key
from repro.workloads import fleet, runner
from repro.workloads.datagen import DataGenerator
from repro.workloads.fio import JobSpec, Mode, large_file_job, small_file_job

from e2e.calibrate import calibrate
from e2e.metrics import (counter_delta, delta_histogram, merge_histograms,
                         percentile, ratio)
from e2e.trace import Tracer

__all__ = ["WORKLOADS", "SIZES", "Pass", "PassSpec"]

#: Work per timed section at the run length ``BENCHMARK.json`` fixes
#: (files; ops for crash_sweep).  The driver allows about 25 s per run
#: of a workload (three passes, each a fresh interpreter with set-up,
#: reference loops, timed section and verification) and the sandbox has
#: spells at half speed, so the sizes are calibrated for 9 to 12 s per
#: run when it is quiet, which leaves timed sections of 1 to 2.5 s.
#: ``--seconds`` scales all of them by one common factor.
SIZES = {
    "small_write": 2400,
    "large_write": 210,
    "large_inline": 450,
    "mixed_rw": 220,
    "tenant_fleet": 300,     # FleetSpec.base_files; the burst is half
    "crash_sweep": 160,      # FuzzConfig.total_ops
    "crash_sweep.image": 160,  # files of the sweep's companion image
}

MB = 1 << 20
THREADS = 4
DUP_RATIO = 0.5
#: Large files are written in 32 KB pieces (fio ``bs=32k``): five ops a
#: file give a timed section over 1000 latency samples, so that p99 has
#: ten samples beyond it and is interpolated, not pinned to the slowest.
LARGE_IO_CHUNK = 32 * 1024
DEVICE_PAGES = 65536
CPUS = 8


@dataclass
class PassSpec:
    """What one pass is given."""

    seed: int                  # the only input to every seeded generator
    scale: float               # common factor on SIZES
    tracer: Tracer             # its root span is the timed section
    t_start: float             # host clock when this pass began setting up
    check_invariants: bool     # run check_fs_invariants after recovery
    calibrate: Callable[[], float] = calibrate   # the reference loop


@dataclass
class Pass:
    """What one pass of one workload measured."""

    units: int                 # units of work done in the timed section
    unit: str
    setup_s: float             # raw host seconds, like timed_s
    timed_s: float
    ref_s: float               # calibrate() around the timed section, mean
    rss_mb: float              # peak RSS up to the end of the timed section
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    e2e: dict = field(default_factory=dict)      # simulated-clock metrics
    samples: dict = field(default_factory=dict)  # metric -> sample count
    counts: dict = field(default_factory=dict)   # per-layer counters


def _scaled(name: str, scale: float) -> int:
    return max(8, round(SIZES[name] * scale))


def _files(name: str, p: PassSpec) -> int:
    """The workload's file count: its size, plus up to 3 % drawn from
    the seed.  On the delayed workloads the foreground path never looks
    at file contents, so with a fixed count its simulated times would
    read the same for every seed; a seed should change the working-set
    size as well as the bytes."""
    base = _scaled(name, p.scale)
    return base + p.seed % (base // 32 + 1)


@contextmanager
def _timed_section(p: PassSpec, workload: str):
    """End of set-up, the traced timed section, and what surrounds it:
    the reference loop on either side, peak RSS at its end.  Yields the
    host-clock fields of the :class:`Pass`."""
    host = {"setup_s": time.perf_counter() - p.t_start}
    ref_before = p.calibrate()
    with p.tracer.trace(workload):
        yield host
    host["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    host["ref_s"] = (ref_before + p.calibrate()) / 2
    host["timed_s"] = p.tracer.root["host_s"]


def _make_fs(variant: Variant, nfiles: int):
    cfg = Config(device_pages=DEVICE_PAGES, max_inodes=nfiles + 64,
                 cpus=CPUS, delayed_interval_ms=0.75, delayed_batch=20000)
    return make_fs(variant, cfg)


def _mb_s(nbytes: float, ns: float) -> float:
    return (nbytes / MB) / (ns / 1e9) if ns else 0.0


def _state(fs) -> dict:
    """The public counters, as they stand now."""
    return {"obs": fs.obs.snapshot(),
            "pm": fs.dev.stats.snapshot(),
            "hashed": (fs.fingerprinter.strong_bytes
                       + fs.fingerprinter.weak_bytes)}


# ---------------------------------------------------------------- verification

@dataclass
class _Verified:
    checks: int = 0
    problems: list = field(default_factory=list)
    restored_bytes: int = 0        # read back from the recovered image
    restore_sim_ns: float = 0.0    # recovery mount + that read-back
    recovery_host_s: float = 0.0
    recovery_sim_ns: float = 0.0
    entries_replayed: int = 0


def _read_back(fs, files: dict, out: _Verified, when: str) -> dict:
    """sha256 of every file through ``fs.read``; mismatches recorded."""
    digests = {}
    for path, (size, want) in files.items():
        out.checks += 1
        try:
            data = fs.read(fs.lookup(path), 0, size)
        except FSError as exc:
            out.problems.append(f"{when}: {path}: {exc!r}")
            continue
        digests[path] = hashlib.sha256(data).digest()
        if len(data) != size or (want is not None and digests[path] != want):
            out.problems.append(f"{when}: {path}: content mismatch")
    return digests


def _verify(fs, files: dict, invariants_too: bool) -> _Verified:
    """Output and durability check of a drained image.

    ``files`` maps path -> (size, expected sha256 or None).  Contents
    are compared before the crash; then the device loses every byte
    that was not flushed, the image is mounted again (timed on both
    clocks) and every acknowledged file must read back the same from
    only the flushed bytes.  ``check_fs_invariants`` costs as much host
    time as a timed section, so it runs on the recovered image only,
    and only where the caller asks for it.
    """
    out = _Verified()
    before = _read_back(fs, files, out, "before crash")

    dev = fs.dev
    dev.crash("discard")
    dev.recover_view()
    c0, t0 = dev.clock.charged_ns, time.perf_counter()
    recovered = type(fs).mount(dev, cpus=fs.cpus)
    out.recovery_host_s = time.perf_counter() - t0
    out.recovery_sim_ns = dev.clock.charged_ns - c0
    out.entries_replayed = recovered.last_recovery.entries_replayed

    survived = {path: (size, before.get(path))
                for path, (size, _want) in files.items()}
    after = _read_back(recovered, survived, out, "after crash")
    out.restored_bytes = sum(files[path][0] for path in after)
    out.restore_sim_ns = dev.clock.charged_ns - c0
    if invariants_too:
        out.checks += 1
        try:
            invariants.check_fs_invariants(recovered)
        except invariants.InvariantViolation as exc:
            out.problems.append(f"after crash: invariant: {exc}")
    return out


# ---------------------------------------------------------------- counters

def _fs_counts(fs, before: dict, after: dict, ops: int, written: int,
               moved: int, verified: _Verified) -> dict:
    """Per-layer counters of the timed section, from public statistics."""
    obs0, obs1 = before["obs"], after["obs"]
    pm = {k: v - before["pm"][k] for k, v in after["pm"].items()}
    occupancy = fs.fact.occupancy()

    def d(name: str) -> float:
        return counter_delta(obs1, obs0, name)

    def h(name: str) -> dict:
        return delta_histogram(obs1["histograms"].get(name),
                               obs0["histograms"].get(name))

    node = h("dedup.process_node_latency_ns")
    residency = h("dwq.residency_ns")
    return {
        "ops": ops,
        "pm.device.bytes_written_per_user_byte":
            ratio(pm["bytes_written"], written),
        "pm.device.bytes_read_per_user_byte": ratio(pm["bytes_read"], moved),
        "pm.device.sfences_per_op": ratio(pm["sfences"], ops),
        "pm.device.clwbs_per_op": ratio(pm["clwbs"], ops),
        "pm.device.lines_persisted": pm["lines_persisted"],
        "pm.allocator.allocs": d("alloc.allocs_total"),
        "pm.allocator.frees": d("alloc.frees_total"),
        "pm.allocator.steals": d("alloc.steals_total"),
        "nova.fs.write_p99_us":
            percentile(h("fs.write_latency_ns"), 0.99) / 1e3,
        "nova.fs.overwrite_pages": d("fs.overwrite_pages_total"),
        "nova.fs.log_pages_gced": d("fs.log_pages_gced_total"),
        "nova.recovery.entries_replayed": verified.entries_replayed,
        "nova.recovery.host_total_s": verified.recovery_host_s,
        "dedup.fingerprint.bytes_hashed": after["hashed"] - before["hashed"],
        "dedup.fact.steps_per_lookup":
            ratio(d("fact.lookup_steps_total"), d("fact.lookups_total")),
        "dedup.fact.daa_hit_ratio":
            ratio(d("fact.daa_hits_total"), d("fact.lookups_total")),
        "dedup.fact.iaa_inserts": d("fact.iaa_inserts_total"),
        "dedup.fact.max_chain": occupancy["max_chain"],
        "dedup.fact.entries": occupancy["entries"],
        # Cumulative since mkfs: the queue keeps one running maximum.
        "dedup.dwq.peak_depth": fs.dwq.peak_length,
        "dedup.dwq.residency_p50_ms": percentile(residency, 0.5) / 1e6,
        "dedup.dwq.residency_p90_ms": percentile(residency, 0.9) / 1e6,
        "dedup.daemon.nodes": d("daemon.nodes_processed_total"),
        "dedup.daemon.pages_scanned": d("daemon.pages_scanned_total"),
        "dedup.daemon.dup_found_ratio":
            ratio(d("daemon.pages_duplicate_total"),
                  d("daemon.pages_scanned_total")),
        "dedup.daemon.stale_nodes": d("daemon.nodes_stale_total"),
        "dedup.daemon.busy_sim_ms": node["sum"] / 1e6,
        "dedup.daemon.node_p99_us": percentile(node, 0.99) / 1e3,
        "conc.lock_wait_p99_us":
            percentile(h("conc.lock_wait_ns"), 0.99) / 1e3,
        "conc.stalls": d("conc.stalls_total"),
        "conc.stall_p99_us": percentile(h("conc.stall_ns"), 0.99) / 1e3,
        "conc.steals": d("dwq.steals_total"),
        "tenant.quota_failures": 0,
        "tenant.aggressor_p99_us": 0.0,
        "sim.events": d("sim.events_dispatched_total"),
        "obs.spans_recorded": (obs1["trace"]["spans_recorded"]
                               - obs0["trace"]["spans_recorded"]),
        "obs.spans_evicted": (obs1["trace"]["spans_evicted"]
                              - obs0["trace"]["spans_evicted"]),
        "fuzz.crash_points": 0,
        "fuzz.ops_applied": 0,
        "fuzz.case_p50_s": 0.0,
    }


def _finish(fs, files: dict, before: dict, after: dict, space: dict,
            result: Pass, p: PassSpec, ops: int, written: int,
            moved: int) -> Pass:
    """Verify the image and fill in what every fs workload reports."""
    verified = _verify(fs, files, p.check_invariants)
    result.attempted = result.units + verified.checks
    result.failed = len(verified.problems)
    result.problems = verified.problems
    result.e2e.setdefault(
        "sim_read_mb_s",
        _mb_s(verified.restored_bytes, verified.restore_sim_ns))
    result.samples.setdefault("sim_read_mb_s", len(files))
    result.e2e["stored_per_user_byte"] = (
        space["physical_pages"] / space["logical_pages"])
    result.e2e["sim_recovery_ms"] = verified.recovery_sim_ns / 1e6
    for name in result.e2e:
        result.samples.setdefault(name, result.units)
    result.counts = _fs_counts(fs, before, after, ops, written, moved,
                               verified)
    return result


# ---------------------------------------------------------------- fio-like jobs

def _expected_digests(spec: JobSpec) -> dict:
    """path -> (size, sha256), regenerated from the public generator
    parameters ``prepopulate`` and ``run_workload`` document."""
    digests: dict[int, bytes] = {}

    def digest_of(gen: DataGenerator) -> bytes:
        return hashlib.sha256(gen.file_data(spec.file_size)).digest()

    if spec.mode is Mode.READWRITE:
        gens = [DataGenerator(spec.dup_ratio, seed=spec.seed, stream=t)
                for t in range(spec.threads)]
        for i in range(spec.nfiles):
            digests[i] = digest_of(gens[i % spec.threads])
        writers = [0]       # client 0 overwrites, the others read
    else:
        writers = range(spec.threads)
    for t in writers:
        gen = DataGenerator(spec.dup_ratio, seed=spec.seed + 1, stream=t)
        for i in range(t, spec.nfiles, spec.threads):
            digests[i] = digest_of(gen)
    return {f"/t{i % spec.threads}/f{i}": (spec.file_size, digest)
            for i, digest in digests.items()}


_CLIENT_LATENCY = re.compile(r"conc\.t\d+\.op_latency_ns")


def _job(workload: str, variant: Variant, spec: JobSpec, unit: str,
         p: PassSpec) -> Pass:
    """One ``run_workload`` job on a fresh image of ``variant``."""
    fs, dd = _make_fs(variant, spec.nfiles)
    inos = (runner.prepopulate(fs, spec, drain=True)
            if spec.mode is Mode.READWRITE else None)
    before = _state(fs)
    with _timed_section(p, workload) as host:
        res = runner.run_workload(fs, spec, dd=dd, inos=inos)
    after = _state(fs)

    latency = merge_histograms(
        [hist for name, hist in after["obs"]["histograms"].items()
         if _CLIENT_LATENCY.fullmatch(name)])
    readers = (range(1, spec.threads) if spec.mode is Mode.READWRITE
               else range(0))
    writers = [t for t in range(spec.threads) if t not in readers]
    written = sum(res.per_thread_bytes[t] for t in writers)
    result = Pass(units=res.files_done, unit=unit, **host)
    result.e2e = {
        "sim_fg_mb_s": _mb_s(res.bytes_moved, res.foreground_ns),
        "sim_amortised_mb_s": _mb_s(res.bytes_moved, res.total_ns),
        "sim_op_mean_us": latency["sum"] / latency["count"] / 1e3,
        "sim_op_p99_us": percentile(latency, 0.99) / 1e3,
        "sim_write_mb_s": _mb_s(
            written, sum(res.per_thread_ns[t] for t in writers)),
    }
    result.samples = {"sim_op_mean_us": latency["count"],
                      "sim_op_p99_us": latency["count"],
                      "sim_write_mb_s": len(writers)}
    if readers:
        result.e2e["sim_read_mb_s"] = _mb_s(
            sum(res.per_thread_bytes[t] for t in readers),
            sum(res.per_thread_ns[t] for t in readers))
        result.samples["sim_read_mb_s"] = len(readers)
    return _finish(fs, _expected_digests(spec), before, after, res.space,
                   result, p, ops=latency["count"], written=written,
                   moved=res.bytes_moved)


def small_write(p: PassSpec) -> Pass:
    spec = small_file_job(nfiles=_files("small_write", p),
                          dup_ratio=DUP_RATIO, threads=THREADS, seed=p.seed)
    return _job("small_write", Variant.DELAYED, spec, "files",
                p)


def _large_files(name: str, p: PassSpec) -> JobSpec:
    return large_file_job(
        nfiles=_files(name, p), dup_ratio=DUP_RATIO, threads=THREADS,
        seed=p.seed).with_(io_chunk=LARGE_IO_CHUNK)


def large_write(p: PassSpec) -> Pass:
    spec = _large_files("large_write", p)
    return _job("large_write", Variant.DELAYED, spec, "files",
                p)


def large_inline(p: PassSpec) -> Pass:
    spec = _large_files("large_inline", p)
    return _job("large_inline", Variant.INLINE, spec, "files",
                p)


def mixed_rw(p: PassSpec) -> Pass:
    spec = large_file_job(nfiles=_files("mixed_rw", p),
                          dup_ratio=DUP_RATIO, threads=THREADS,
                          mode=Mode.READWRITE, seed=p.seed)
    return _job("mixed_rw", Variant.IMMEDIATE, spec, "file ops",
                p)


# ---------------------------------------------------------------- tenant fleet

PROTECTED, AGGRESSOR = 0, 1


def tenant_fleet(p: PassSpec) -> Pass:
    base = _files("tenant_fleet", p)
    spec = fleet.FleetSpec(
        tenants=4, base_files=base, file_size=32 * 1024,
        dup_ratio=DUP_RATIO, think_ratio=0.5, noisy_tenant=AGGRESSOR,
        noisy_burst_files=base // 2, noisy_clients=4, seed=p.seed)
    nfiles = {spec.tenant_name(i): spec.files_for(i)
              + (spec.noisy_burst_files if i == AGGRESSOR else 0)
              for i in range(spec.tenants)}
    fs, _dd = _make_fs(Variant.DELAYED, sum(nfiles.values()))
    before = _state(fs)
    with _timed_section(p, "tenant_fleet") as host:
        res = fleet.run_fleet(
            fs, spec, dd=runner.DDMode.immediate(), bw_slots=2, shards=4,
            max_shard_depth=4, qos=True,
            weights={spec.tenant_name(PROTECTED): 8})
    after = _state(fs)

    def tenant_series(metric: str, i: int) -> str:
        return series_key(metric, {"tenant": spec.tenant_name(i)})

    hists = after["obs"]["histograms"]
    protected = hists[tenant_series("tenant.op_latency_ns", PROTECTED)]
    written = sum(t["bytes"] for t in res.per_tenant.values())
    result = Pass(units=sum(t["files"] for t in res.per_tenant.values()),
                  unit="files", **host)
    result.e2e = {
        "sim_fg_mb_s": _mb_s(written, res.foreground_ns),
        "sim_amortised_mb_s": _mb_s(written, res.total_ns),
        "sim_op_mean_us": protected["sum"] / protected["count"] / 1e3,
        "sim_op_p99_us": percentile(protected, 0.99) / 1e3,
        "sim_write_mb_s": _mb_s(
            res.per_tenant[spec.tenant_name(PROTECTED)]["bytes"],
            protected["sum"]),
    }
    result.samples = {"sim_op_mean_us": protected["count"],
                      "sim_op_p99_us": protected["count"],
                      "sim_write_mb_s": 1}
    # run_fleet keeps its generator streams private, so contents are
    # pinned by the digests read before the crash; before it, every file
    # must exist at full size and no tenant may have been refused.
    files = {f"/t/{name}/f{k}": (spec.file_size, None)
             for name, n in nfiles.items() for k in range(n)}
    ops = sum(counter_delta(after["obs"], before["obs"],
                            tenant_series("tenant.ops_total", i))
              for i in range(spec.tenants))
    _finish(fs, files, before, after, fs.space_stats(), result, p,
            ops=int(ops), written=written, moved=written)
    short = {name: (res.per_tenant[name]["files"], n)
             for name, n in nfiles.items()
             if res.per_tenant[name]["files"] != n}
    if short or res.quota_failures:
        result.failed += len(short) + sum(res.quota_failures.values())
        result.problems.append(
            f"tenants wrote fewer files than issued: {short}, "
            f"quota failures {res.quota_failures}")
    result.counts["tenant.quota_failures"] = sum(
        res.quota_failures.values())
    result.counts["tenant.aggressor_p99_us"] = percentile(
        hists[tenant_series("tenant.op_latency_ns", AGGRESSOR)], 0.99) / 1e3
    return result


# ---------------------------------------------------------------- crash sweep

#: Many short sequences, one crash point per (phase, mode) each: the
#: host cost of a 40-op case varies threefold with what the generator
#: drew; 20 short cases per timed section, dominated by the fixed cost
#: of mkfs, replay and mount, average that out across seeds.
SWEEP_SEQ_OPS = 8
SWEEP_BUDGET = 4


def crash_sweep(p: PassSpec) -> Pass:
    """Differential fuzz with crash replay; the durability workload.

    ``run_case`` builds and discards its filesystems itself, so the
    simulated-clock numbers come from a companion image written after
    the timed section: a large-file job with the campaign's seed that
    goes through the same crash, remount and read-back as every other
    workload.  It is written inline, where even the foreground times
    depend on the contents the seed drew.
    """
    fuzz = FuzzRunner(
        FuzzConfig(seed=p.seed, total_ops=_scaled("crash_sweep", p.scale),
                   seq_ops=SWEEP_SEQ_OPS, budget=SWEEP_BUDGET),
        shrink_failures=False)
    with _timed_section(p, "crash_sweep") as host:
        res = fuzz.run()
    violations = int(fuzz.m_violations.value)

    spec = _large_files("crash_sweep.image", p)
    image = _job("crash_sweep.image", Variant.INLINE, spec, "files",
                 replace(p, tracer=Tracer(enabled=False),
                         calibrate=lambda: 0.0))
    result = Pass(units=res.crash_points, unit="crash points", **host,
                  attempted=(res.crash_points + res.sequences
                             + image.attempted),
                  failed=violations + image.failed,
                  problems=([str(f.violation) for f in res.failures]
                            + image.problems),
                  e2e=image.e2e, samples=image.samples)
    result.counts = dict.fromkeys(image.counts, 0)
    result.counts.update({
        "ops": res.ops_applied,
        "fuzz.crash_points": res.crash_points,
        "fuzz.ops_applied": res.ops_applied,
        "fuzz.case_p50_s": fuzz.h_case.percentile(0.5),
    })
    return result


WORKLOADS = {
    "small_write": small_write,
    "large_write": large_write,
    "large_inline": large_inline,
    "mixed_rw": mixed_rw,
    "tenant_fleet": tenant_fleet,
    "crash_sweep": crash_sweep,
}

