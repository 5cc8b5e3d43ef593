"""Fleet-traffic scenarios: many tenants, realistic load shapes.

Models the service-scale traffic the ROADMAP north-star describes,
four shapes composable in one :class:`FleetSpec`:

* **zipfian tenant sizes** — tenant *i* owns
  ``max(1, round(base_files / (i+1)^zipf_s))`` files, the classic
  heavy-tail fleet distribution;
* **diurnal load** — per-tenant think time modulated by a sinusoid of
  simulated time (peak-hour traffic compresses think time, off-hours
  stretch it);
* **noisy-neighbor bursts** — one designated tenant writes an extra
  burst of files with zero think time, saturating the bounded DWQ;
* **tenant churn** — a fraction of each tenant's files is deleted and
  rewritten after the first pass (new inodes, re-deduplicated data).

Diurnal load and churn are class attributes of :class:`FleetSpec`, off
by default; a spec subclass turns them on.

Everything is seeded and runs on simulated time, so a fleet run is
fully reproducible — the isolation baseline in
``benchmarks/bench_tenants.py`` depends on that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar, Optional

from repro.conc.vfs import OP_LATENCY_BUCKETS_NS, ConcurrentVFS
from repro.tenant import QuotaExceeded
from repro.workloads.datagen import DataGenerator
from repro.workloads.runner import MS, DDMode

__all__ = ["FleetSpec", "FleetResult", "run_fleet"]


@dataclass(frozen=True)
class FleetSpec:
    """One fleet scenario (sizes, load shape, misbehavior)."""

    tenants: int = 4
    base_files: int = 32          # tenant 0's file count; zipf-scaled down
    file_size: int = 16 * 1024
    zipf_s: float = 1.0
    dup_ratio: float = 0.5
    think_ratio: float = 0.0      # think time as a fraction of file io
    noisy_tenant: Optional[int] = None
    noisy_burst_files: int = 0
    noisy_clients: int = 4        # parallel streams inside the burst
    seed: int = 7
    diurnal_period_ms: ClassVar[float] = 0.0   # 0 = flat load
    diurnal_amplitude: ClassVar[float] = 0.0   # 0..1: think-time swing
    churn: ClassVar[float] = 0.0  # fraction of files deleted + rewritten

    def __post_init__(self):
        if self.tenants < 1:
            raise ValueError(f"tenants must be >= 1, not {self.tenants}")
        if self.noisy_tenant is not None \
                and self.noisy_tenant not in range(self.tenants):
            raise ValueError(f"noisy tenant {self.noisy_tenant} is not one "
                             f"of the {self.tenants} tenants")
        # Every tenant's DataGenerator would refuse it, one DES process in.
        if not 0.0 <= self.dup_ratio <= 1.0:
            raise ValueError("dup_ratio must be in [0, 1]")

    def files_for(self, i: int) -> int:
        return max(1, round(self.base_files / (i + 1) ** self.zipf_s))

    def tenant_name(self, i: int) -> str:
        return f"tn{i}"


@dataclass
class FleetResult:
    """Per-tenant outcome of one fleet run."""

    spec: FleetSpec
    qos: bool = False
    total_ns: float = 0.0
    foreground_ns: float = 0.0
    per_tenant: dict = field(default_factory=dict)
    quota_failures: dict = field(default_factory=dict)
    stalls: int = 0
    dwq_peak: int = 0
    metrics: dict = field(default_factory=dict)


def _diurnal_factor(spec: FleetSpec, now_ns: float) -> float:
    if spec.diurnal_period_ms <= 0 or spec.diurnal_amplitude <= 0:
        return 1.0
    phase = 2.0 * math.pi * now_ns / (spec.diurnal_period_ms * MS)
    return max(0.0, 1.0 + spec.diurnal_amplitude * math.sin(phase))


def _tenant_writer(cvfs: ConcurrentVFS, fs, spec: FleetSpec, i: int,
                   tid: int, result: FleetResult,
                   sub: int = 0, nsubs: int = 1):
    """One tenant client process: write files, churn, maybe misbehave.

    A noisy tenant runs ``nsubs`` of these in parallel (each taking the
    file indices ``sub, sub+nsubs, ...``), which is what lets a single
    tenant saturate the bounded DWQ and the bandwidth slots.
    """
    name = spec.tenant_name(i)
    holder = f"tenant-{name}" + (f".{sub}" if nsubs > 1 else "")
    labels = {"tenant": name}
    reg = fs.obs.registry
    lat = reg.histogram("tenant.op_latency_ns",
                        buckets=OP_LATENCY_BUCKETS_NS, labels=labels,
                        help="client-perceived op latency")
    ops = reg.counter("tenant.ops_total", labels=labels,
                      help="filesystem ops issued by the tenant")
    written = reg.counter("tenant.bytes_written_total", labels=labels,
                          help="bytes the tenant wrote")
    gen = DataGenerator(spec.dup_ratio, seed=spec.seed,
                        stream=100 + i * 16 + sub)
    rng_stream = DataGenerator(spec.dup_ratio, seed=spec.seed,
                               stream=900 + i * 16 + sub)
    eng = cvfs.eng
    noisy = spec.noisy_tenant == i
    nfiles = spec.files_for(i) + (spec.noisy_burst_files if noisy else 0)
    stats = result.per_tenant[name]
    cpu = i % fs.cpus

    def _one_file(fidx: int, data: bytes):
        """Create + write one file; returns its io ns (or None on quota)."""
        path = f"/t/{name}/f{fidx}"

        def _create():
            if fs.exists(path):
                return fs.lookup(path)
            return fs.create(path)

        try:
            ino, create_ns = yield from cvfs.op(
                _create, holder, ns_mode="w",
                extra_ns=cvfs.create_tax_ns, record=lat, tenant=tid)
            ops.inc()
            # The recorded write latency is client-perceived — it
            # includes the DWQ admission stall, which is exactly what a
            # noisy neighbor inflates, so it lands in the histogram the
            # isolation baseline reads.
            _, write_ns = yield from cvfs.write(
                lambda: fs.write(ino, 0, data, cpu=cpu), holder, ino,
                record=lat, tenant=tid)
        except QuotaExceeded:
            result.quota_failures[name] = \
                result.quota_failures.get(name, 0) + 1
            return None
        ops.inc()
        written.inc(len(data))
        stats["bytes"] += len(data)
        return create_ns + write_ns

    my_done: list[int] = []
    for fidx in range(sub, nfiles, nsubs):
        data = gen.file_data(spec.file_size)
        io_ns = yield from _one_file(fidx, data)
        if io_ns is None:
            break
        stats["files"] += 1
        my_done.append(fidx)
        if spec.think_ratio > 0 and not noisy:
            think = (io_ns * spec.think_ratio
                     * _diurnal_factor(spec, cvfs.now_ns))
            if think > 0:
                yield eng.timeout(think)

    if spec.churn > 0 and my_done:
        nchurn = max(1, int(len(my_done) * spec.churn))
        for k in range(nchurn):
            fidx = my_done[k % len(my_done)]
            path = f"/t/{name}/f{fidx}"
            uino, _ = yield from cvfs.op(
                lambda path=path: (fs.lookup(path) if fs.exists(path)
                                   else None),
                holder, ns_mode="r", tenant=tid)
            if uino is None:
                continue

            def _unlink(path=path):
                fs.unlink(path)

            # The inode lock serializes the unlink against a worker
            # mid-way through dedup'ing this file's DWQ node (reclaim
            # under a live FACT staging would corrupt refcounts).
            yield from cvfs.op(_unlink, holder, ns_mode="w", ino=uino,
                               record=lat, tenant=tid)
            ops.inc()
            data = rng_stream.file_data(spec.file_size)
            io_ns = yield from _one_file(fidx, data)
            if io_ns is None:
                break
            stats["churned"] += 1


def run_fleet(fs, spec: FleetSpec, dd: Optional[DDMode] = None,
              bw_slots: int = 4, workers: int = 1,
              shards: Optional[int] = None,
              max_shard_depth: Optional[int] = None,
              qos: bool = False,
              qos_op_rate_per_s: Optional[float] = None,
              weights: Optional[dict] = None) -> FleetResult:
    """Run one fleet scenario; tenants are created if they don't exist,
    without quota.

    ``weights`` maps tenant name -> QoS weight, defaulting to weight 1.
    """
    if dd is None:
        dd = DDMode.immediate() if hasattr(fs, "daemon") else DDMode.none()
    result = FleetResult(spec=spec, qos=qos)
    tids = {}
    for i in range(spec.tenants):
        name = spec.tenant_name(i)
        info = fs.tenants.registry.get(name) if fs.tenants.registry else None
        if info is None:
            info = fs.tenant_create(name,
                                    weight=(weights or {}).get(name, 1))
        tids[i] = info.tid

    cvfs = ConcurrentVFS(fs, bw_slots=bw_slots, workers=workers,
                         shards=shards, max_shard_depth=max_shard_depth,
                         qos=qos, qos_op_rate_per_s=qos_op_rate_per_s)
    clients = []
    for i in range(spec.tenants):
        name = spec.tenant_name(i)
        result.per_tenant[name] = {"files": 0, "bytes": 0, "churned": 0}
        nsubs = (max(1, spec.noisy_clients)
                 if spec.noisy_tenant == i else 1)
        for sub in range(nsubs):
            clients.append(cvfs.client(
                _tenant_writer(cvfs, fs, spec, i, tids[i], result,
                               sub=sub, nsubs=nsubs),
                name=f"tenant-{name}.{sub}"))
    result.foreground_ns, result.total_ns = cvfs.run(clients, dd)

    for i in range(spec.tenants):
        name = spec.tenant_name(i)
        h = fs.obs.registry.histogram("tenant.op_latency_ns",
                                      buckets=OP_LATENCY_BUCKETS_NS,
                                      labels={"tenant": name})
        result.per_tenant[name].update({
            "ops": h.count,
            "p50_ns": h.percentile(0.5) if h.count else 0.0,
            "p95_ns": h.percentile(0.95) if h.count else 0.0,
            "p99_ns": h.percentile(0.99) if h.count else 0.0,
            "max_ns": h.max if h.count else 0.0,
        })
    result.stalls = int(cvfs._c_stalls.value)
    if hasattr(fs, "dwq"):
        result.dwq_peak = fs.dwq.peak_length
    result.metrics = fs.obs.snapshot()
    return result
