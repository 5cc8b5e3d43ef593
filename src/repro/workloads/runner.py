"""The DES workload runner.

Bridges the synchronous filesystem to the discrete-event engine: each
filesystem call runs under the clock's *capture* mode (its modelled cost
is absorbed instead of advancing global time), then the simulated thread
sleeps that long on the engine — so interleaving, lock queuing and
bandwidth saturation are decided by the DES, not by call order.

Since the repro.conc subsystem landed, the runner drives workloads
through :class:`~repro.conc.vfs.ConcurrentVFS`: N real client processes
against one filesystem under the ns → ino → shard → fact lock
hierarchy, the filesystem's DWQ re-laid per CPU
(:meth:`~repro.dedup.dwq.DWQ.relay`), and a dedup
**worker pool** (``workers=1`` replicates the single-daemon behaviour
the paper measures).  Contention model (the paper's Fig. 9 shape):

* an **iMC bandwidth resource** with ``bw_slots`` concurrent slots —
  writers queue behind it, saturating device throughput;
* a small **coherence penalty per queued waiter** on slot hand-off —
  oversubscription makes everyone slightly slower, giving the post-peak
  decline;
* the **namespace RWLock** plus a live-client coherence tax on creates —
  why small-file throughput peaks at fewer threads than large-file;
* **per-inode RWLocks** — held exclusively by a dedup worker for the
  whole Algorithm-1 node, exactly as DeNova holds the inode lock.

The dedup pool is driven by ``DDMode.immediate()`` (sleep until kicked,
then drain) or ``DDMode.delayed(n_ms, m)`` (every n ms, up to m nodes
split across the pool).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.conc.vfs import ConcurrentVFS
from repro.workloads.datagen import DataGenerator
from repro.workloads.fio import JobSpec, Mode

__all__ = ["DDMode", "RunResult", "run_workload"]

MS = 1_000_000.0  # ns per millisecond


@dataclass(frozen=True)
class DDMode:
    """How the dedup daemon is driven during the run."""

    kind: str                 # "none" | "immediate" | "delayed"
    interval_ms: float = 0.0  # n of delayed(n, m)
    batch: int = 0            # m of delayed(n, m)

    @classmethod
    def none(cls) -> "DDMode":
        """No daemon (baseline NOVA, or inline variants)."""
        return cls("none")

    @classmethod
    def immediate(cls) -> "DDMode":
        return cls("immediate")

    @classmethod
    def delayed(cls, interval_ms: float, batch: int) -> "DDMode":
        return cls("delayed", interval_ms, batch)

    def __post_init__(self):
        if self.kind not in ("none", "immediate", "delayed"):
            raise ValueError(f"unknown dedup drive kind {self.kind!r}")
        if self.kind == "delayed" and (self.interval_ms <= 0
                                       or self.batch < 1):
            raise ValueError("delayed(n, m) needs n > 0 ms and m >= 1")

    def __str__(self) -> str:
        if self.kind == "delayed":
            return f"delayed({self.interval_ms:g},{self.batch})"
        return self.kind


@dataclass
class RunResult:
    """Simulated-time outcome of one job."""

    spec: JobSpec
    dd: str
    files_done: int = 0
    bytes_moved: int = 0
    foreground_ns: float = 0.0     # writers' wall span (throughput basis)
    total_ns: float = 0.0          # until the daemon drained too
    io_ns: float = 0.0             # summed op costs (excl. think)
    think_ns: float = 0.0
    dd_busy_ns: float = 0.0
    dd_nodes: int = 0
    destage_records: int = 0
    destage_busy_ns: float = 0.0
    per_thread_ns: list = field(default_factory=list)
    per_thread_bytes: list = field(default_factory=list)
    per_thread_latency: list = field(default_factory=list)  # percentile dicts
    workers: int = 1
    steals: int = 0
    stalls: int = 0
    dwq_peak: int = 0
    lingering_ns: list = field(default_factory=list)
    space: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)  # fs.obs.snapshot()

    @property
    def throughput_mb_s(self) -> float:
        """Foreground throughput in MB/s of simulated time."""
        if self.foreground_ns <= 0:
            return 0.0
        return (self.bytes_moved / (1 << 20)) / (self.foreground_ns / 1e9)

    @property
    def files_per_s(self) -> float:
        if self.foreground_ns <= 0:
            return 0.0
        return self.files_done / (self.foreground_ns / 1e9)

    @property
    def mean_op_latency_us(self) -> float:
        if not self.files_done:
            return 0.0
        return self.io_ns / self.files_done / 1000.0


def _writer(cvfs: ConcurrentVFS, fs, spec: JobSpec, tid: int,
            gen: DataGenerator, result: RunResult, inos: list):
    """One fio job thread (a ConcurrentVFS client generator)."""
    my_files = range(tid, spec.nfiles, spec.threads)
    holder = f"writer-{tid}"
    lat = cvfs.client_latency_histogram(tid)
    # Thread 0 is the writer in the mixed workload (Fig. 12's second
    # experiment); the rest measure read throughput.
    reads = spec.mode == Mode.READ or (spec.mode == Mode.READWRITE
                                       and tid != 0)
    chunk = spec.io_chunk or spec.file_size
    io_ns = 0.0
    think_ns = 0.0
    bytes_moved = 0
    start = cvfs.eng.now
    for i in my_files:
        file_io_ns = 0.0
        if spec.mode == Mode.WRITE:
            ino, cost = yield from cvfs.op(
                lambda path=f"/t{tid}/f{i}": fs.create(path), holder,
                ns_mode="w", extra_ns=cvfs.create_tax_ns, record=lat)
            file_io_ns += cost
            inos[i] = ino
        else:
            ino = inos[i]
        if reads:
            _, cost = yield from cvfs.op(
                lambda ino=ino: fs.read(ino, 0, spec.file_size, cpu=tid),
                holder, ino=ino, ino_mode="r", record=lat)
            file_io_ns += cost
        else:
            data = gen.file_data(spec.file_size)
            for off in range(0, spec.file_size, chunk):
                _, cost = yield from cvfs.write(
                    lambda ino=ino, off=off, piece=data[off:off + chunk]:
                        fs.write(ino, off, piece, cpu=tid),
                    holder, ino, record=lat)
                file_io_ns += cost
        bytes_moved += spec.file_size
        io_ns += file_io_ns
        if spec.think_ratio > 0:
            # §V-B1: 0.1 ms of think time per 0.1 ms of I/O time.
            think = file_io_ns * spec.think_ratio
            think_ns += think
            yield cvfs.eng.timeout(think)
    result.per_thread_ns[tid] = cvfs.eng.now - start
    result.per_thread_bytes[tid] = bytes_moved
    result.io_ns += io_ns
    result.think_ns += think_ns
    result.bytes_moved += bytes_moved
    result.files_done += len(my_files)


def prepopulate(fs, spec: JobSpec, drain: bool = True) -> list[int]:
    """Create the job's file set outside measured time.

    Returns inode numbers indexed by file number.  ``drain`` lets the
    daemon finish all dedup first (Fig. 11/12 give the DD "plenty of
    time" before overwrite/read phases).
    """
    inos = [0] * spec.nfiles
    gens = [DataGenerator(spec.dup_ratio, seed=spec.seed, stream=t)
            for t in range(spec.threads)]
    for t in range(spec.threads):
        if not fs.exists(f"/t{t}"):
            fs.mkdir(f"/t{t}")
    for i in range(spec.nfiles):
        t = i % spec.threads
        ino = fs.create(f"/t{t}/f{i}")
        fs.write(ino, 0, gens[t].file_data(spec.file_size), cpu=t)
        inos[i] = ino
    if drain and hasattr(fs, "daemon"):
        fs.daemon.drain()
    return inos


def run_workload(fs, spec: JobSpec, dd: Optional[DDMode] = None,
                 bw_slots: int = 4, inos: Optional[list[int]] = None,
                 workers: int = 1,
                 destage_workers: int = 1) -> RunResult:
    """Execute a job through ConcurrentVFS and return simulated results.

    For OVERWRITE/READ modes the file set must exist (pass ``inos`` from
    :func:`prepopulate`, or the runner prepopulates with the same spec).

    ``workers`` sizes the dedup worker pool (1 = the paper's single
    daemon) over one unbounded DWQ shard per CPU.

    ``destage_workers`` sizes the staging destage pool; it only matters
    when ``fs.enable_staging()`` was called (``workers=1`` destages each
    inode's records in stage order, reproducing the staging-off final
    state exactly).
    """
    if dd is None:
        dd = DDMode.immediate() if hasattr(fs, "daemon") else DDMode.none()
    result = RunResult(spec=spec, dd=str(dd), workers=workers)
    result.per_thread_ns = [0.0] * spec.threads
    result.per_thread_bytes = [0] * spec.threads

    if spec.mode in (Mode.OVERWRITE, Mode.READ, Mode.READWRITE):
        if inos is None:
            inos = prepopulate(fs, spec)
    else:
        inos = [0] * spec.nfiles
        for t in range(spec.threads):
            if not fs.exists(f"/t{t}"):
                fs.mkdir(f"/t{t}")

    cvfs = ConcurrentVFS(fs, bw_slots=bw_slots, workers=workers)
    # Overwrite phases rewrite with *fresh* unique-stream offsets so the
    # new data does not accidentally equal the old.
    stream_base = 1000 if spec.mode == Mode.OVERWRITE else 0
    gens = [DataGenerator(spec.dup_ratio, seed=spec.seed + 1,
                          stream=stream_base + t)
            for t in range(spec.threads)]

    writers = [
        cvfs.client(_writer(cvfs, fs, spec, t, gens[t], result, inos),
                    name=f"writer-{t}")
        for t in range(spec.threads)
    ]
    # Staged small writes are destaged by a background pool while the
    # writers run; throughput is still the writers' wall span, so the
    # absorption win shows up as foreground time, and the destage cost
    # as background time (like the dedup daemon's).
    steals = fs.dwq.steals if hasattr(fs, "dwq") else 0
    result.foreground_ns, result.total_ns = cvfs.run(
        writers, dd, destage_workers=destage_workers)

    result.dd_busy_ns = cvfs.worker_busy_ns
    result.dd_nodes = cvfs.worker_nodes
    result.destage_records = cvfs.destage_records
    result.destage_busy_ns = cvfs.destage_busy_ns
    result.per_thread_latency = []
    for t in range(spec.threads):
        h = cvfs.client_latency_histogram(t)
        result.per_thread_latency.append({
            "count": h.count,
            "p50_ns": h.percentile(0.5) if h.count else 0.0,
            "p95_ns": h.percentile(0.95) if h.count else 0.0,
            "p99_ns": h.percentile(0.99) if h.count else 0.0,
            "mean_ns": h.sum / h.count if h.count else 0.0,
            "max_ns": h.max if h.count else 0.0,
        })
    result.stalls = int(cvfs._c_stalls.value)
    if hasattr(fs, "dwq"):
        result.steals = fs.dwq.steals - steals
        result.dwq_peak = fs.dwq.peak_length
        result.lingering_ns = list(fs.dwq.lingering_ns)
    if hasattr(fs, "space_stats"):
        result.space = fs.space_stats()
    result.metrics = fs.obs.snapshot()
    return result
