"""ConcurrentVFS — N simulated clients against one filesystem.

The front-end of the concurrency subsystem: it owns the DES engine, the
lock hierarchy, the per-CPU layout of the filesystem's DWQ, and the
dedup and destage pools, and exposes three things a workload driver
composes: :meth:`op` runs a synchronous filesystem call as a properly
locked, cost-accounted simulated-time operation; :meth:`write` is an
``op`` that may enqueue DWQ nodes (admission, the tenant's DWQ-share
reservation, the worker kick); :meth:`run` drives client processes to
completion beside the pools.  Nothing outside this module admits,
releases a reservation, starts a pool or runs the engine
(``tests/conc/test_driver.py``).

Lock hierarchy (acquisition must follow this order; the
:class:`~repro.conc.lockorder.LockOrderValidator` enforces it at
runtime by recording the acquisition DAG and failing fast on cycles):

1. ``ns`` — the namespace (dentry) lock, a phase-fair
   :class:`~repro.sim.RWLock`: path lookups share it, create/unlink/
   rename/mkdir take it exclusively;
2. ``ino:<n>`` — per-inode RWLocks: reads share, writes and the dedup
   worker's whole Algorithm-1 node are exclusive (DeNova holds the inode
   lock for the full node);
3. ``shard:<s>`` — per-shard DWQ locks (dequeue/steal side);
4. ``fact`` — one FACT lock: a worker stages a node's hits (lookup,
   insert, UC staging) in one operation under it, so two workers can
   never double-claim an entry.

One engine operation per lock set: a worker's node is at most three
:meth:`op` calls inside its ``ino:<n>`` hold (validate + fingerprint
every page, stage every hit under ``fact``, commit), not one per page.
Every call costs the host an engine dispatch and a lock-order check;
the simulated charges are the same either way.

Backpressure: with ``max_shard_depth`` set, a writer targeting a full
DWQ shard stalls in :meth:`admit` until a worker drains it — bounded
queues instead of the paper's unbounded DRAM growth.  Contention is
observable: ``conc.lock_wait_ns`` (lock wait-time histogram),
``conc.stalls_total`` / ``conc.stall_ns`` (admission control),
``dwq.shard<i>.depth`` and ``dwq.steals_total`` (shard balance), and
``conc.live_clients``.
"""

from __future__ import annotations

import random
from typing import Callable, Optional

from repro.conc.lockorder import LockOrderValidator
from repro.pm.clock import FS_PER_NS, fs_of
from repro.sim import Engine, Lock, Process, Resource, RWLock
from repro.tenant.qos import UNTENANTED, TenantQoS

__all__ = ["ConcurrentVFS", "OP_LATENCY_BUCKETS_NS"]

MS = 1_000_000.0  # ns per millisecond

#: Per-client op-latency buckets: 100 ns .. 1 s of simulated time.
OP_LATENCY_BUCKETS_NS = (
    1e2, 2.5e2, 5e2, 1e3, 2.5e3, 5e3, 1e4, 2.5e4, 5e4, 1e5,
    2.5e5, 5e5, 1e6, 2.5e6, 5e6, 1e7, 1e8, 1e9,
)

#: Lock/stall wait buckets: 10 ns .. 100 ms.
WAIT_BUCKETS_NS = (
    1e1, 5e1, 1e2, 2.5e2, 5e2, 1e3, 2.5e3, 5e3, 1e4, 5e4,
    1e5, 5e5, 1e6, 1e7, 1e8,
)


#: Oversubscription cost per queued waiter on a bandwidth-slot hand-off.
BW_QUEUE_PENALTY_NS = 120.0

#: Contention penalty of the ino / shard / fact locks.  Namespace
#: updates (inode allocation + parent-dir dentry append) serialize
#: harder than data writes — the ns lock carries 6× this — which is why
#: create-dominated small-file workloads peak at fewer threads than
#: large-file ones (the paper's Fig. 9: 2 vs 8).
LOCK_PENALTY_NS = 60.0

#: Per-create coherence cost for each *other* live client: shared
#: inode-table and directory cache lines ping-pong between cores.
NAMESPACE_COHERENCE_NS = 1500.0

#: Destage workers are DES-clock driven: each polls its share of pending
#: inodes this often, so destage lag is bounded and deterministic.
DESTAGE_POLL_NS = 200_000.0

#: Slab-occupancy fraction above which a destage worker drains an inode
#: before being told to stop (lazy, pressure-driven).
DESTAGE_HIGH_WATER = 0.5


class ConcurrentVFS:
    """Concurrency front-end for one mounted filesystem."""

    #: Schedule permutation, for the determinism permuter in the tests:
    #: a seed here delays each op by a seeded draw in ``[0, jitter_ns)``.
    jitter_seed: Optional[int] = None
    jitter_ns = 2000.0

    def __init__(self, fs, *, bw_slots: int = 4,
                 workers: int = 1,
                 shards: Optional[int] = None,
                 max_shard_depth: Optional[int] = None,
                 qos: bool = False,
                 qos_op_rate_per_s: Optional[float] = None):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.fs = fs
        self.eng = Engine(obs=fs.obs)
        self.base_fs = fs.clock.now_fs
        self.bw = Resource(self.eng, bw_slots)
        self.ns_lock = RWLock(self.eng,
                              contention_penalty_ns=6 * LOCK_PENALTY_NS)
        self.validator = LockOrderValidator()
        # Locks beside their names: a name is built once, not per op.
        self._ino_locks: dict[int, tuple[RWLock, str]] = {}
        self._fact_lock = Lock(self.eng,
                               contention_penalty_ns=LOCK_PENALTY_NS)
        self.live_clients = 0
        self.workers = workers
        self.worker_nodes = 0
        self.worker_busy_ns = 0.0
        self._worker_wakes: list = []
        # The trace of the node each worker holds, for its lock instants.
        self._node_traces: dict[str, int] = {}
        self._stop = False
        self.destage_records = 0
        self.destage_busy_ns = 0.0
        self._stop_destage = False
        self._jitter = (random.Random(f"repro.conc:{self.jitter_seed}")
                        if self.jitter_seed is not None else None)

        # ---- the filesystem's DWQ, re-laid per CPU (dedup fs only) ----
        dwq = getattr(fs, "dwq", None)
        if dwq is not None:
            dwq.relay(shards if shards is not None else max(1, fs.cpus),
                      max_shard_depth)
        lanes = range(dwq.nshards if dwq is not None else 0)
        self._shard_locks = [
            (Lock(self.eng, contention_penalty_ns=LOCK_PENALTY_NS),
             f"shard:{s}") for s in lanes]
        self._space_waiters = [[] for _ in lanes]

        # ---- tenant QoS (weighted-fair admission) ----
        self.qos = None
        if qos:
            dwq_cap = None
            if dwq is not None and dwq.max_depth is not None:
                dwq_cap = dwq.nshards * dwq.max_depth
            self.qos = TenantQoS(self.eng, fs.tenants,
                                 bw_slots=bw_slots,
                                 dwq_capacity=dwq_cap,
                                 op_rate_per_s=qos_op_rate_per_s)

        # ---- contention metrics ----
        self._obs = fs.obs
        self._registry = reg = fs.obs.registry
        self._h_lock_wait = reg.histogram(
            "conc.lock_wait_ns", buckets=WAIT_BUCKETS_NS,
            help="simulated ns spent waiting on hierarchy locks")
        self._c_stalls = reg.counter(
            "conc.stalls_total",
            help="writer stalls on a full DWQ shard (backpressure)")
        self._h_stall = reg.histogram(
            "conc.stall_ns", buckets=WAIT_BUCKETS_NS,
            help="simulated ns writers spent stalled on admission")
        reg.gauge_fn("conc.live_clients", lambda: self.live_clients,
                     help="client processes currently running")

    # ------------------------------------------------------------ plumbing

    @property
    def now_fs(self) -> int:
        return self.base_fs + self.eng.now_fs

    @property
    def now_ns(self) -> float:
        return self.now_fs / FS_PER_NS

    def _ino_lock(self, ino: int) -> tuple:
        """``(lock, "ino:<ino>")``, made on first use."""
        entry = self._ino_locks.get(ino)
        if entry is None:
            entry = self._ino_locks[ino] = (
                RWLock(self.eng, contention_penalty_ns=LOCK_PENALTY_NS),
                f"ino:{ino}")
        return entry

    def client_latency_histogram(self, tid: int):
        """Per-client op-latency histogram (``conc.t<i>.op_latency_ns``)."""
        return self._registry.histogram(
            f"conc.t{tid}.op_latency_ns", buckets=OP_LATENCY_BUCKETS_NS,
            help=f"client {tid} op latency (lock waits + modelled cost)")

    def coherence_tax_ns(self) -> float:
        """Per-create coherence cost, measured from the live-client
        gauge, not assumed from the spec — a client that finished early
        stops taxing the rest."""
        return NAMESPACE_COHERENCE_NS * max(0, self.live_clients - 1)

    def create_tax_ns(self) -> float:
        """What a *foreground* create pays of it.  A staged create
        appends to a per-slab staging line instead of the shared inode
        table + directory log, so the tax moves to the destage worker
        (which pays it in the background, where the persistent
        namespace update actually happens)."""
        if self.fs.staging_enabled:
            return 0.0
        return self.coherence_tax_ns()

    # ------------------------------------------------------------ op core

    def op(self, fn: Callable[[], object], holder: str, *,
           ns_mode: Optional[str] = None,
           ino: Optional[int] = None, ino_mode: str = "w",
           shard: Optional[int] = None, fact: bool = False,
           use_bw: bool = True, extra_ns=0.0,
           record=None, tenant: Optional[int] = None):
        """Run one filesystem call as a simulated-time operation.

        Locks are taken in hierarchy order (ns → ino → shard → fact),
        each acquisition checked against the lock-order DAG, with wait
        time observed into ``conc.lock_wait_ns``.  The modelled cost of
        ``fn`` (clock capture) elapses *while the locks are held*, which
        is what makes the fact lock meaningful: another worker cannot
        stage into FACT during this worker's NVM latency.

        Generator protocol: ``result, cost_ns = yield from vfs.op(...)``.
        """
        eng, qos, obs = self.eng, self.qos, self._obs
        if self._jitter is not None:
            # Schedule permutation: a seeded, bounded delay before the
            # op perturbs the interleaving without changing any op.
            yield eng.timeout(self._jitter.uniform(0.0, self.jitter_ns))
        t_op = eng.now
        if qos is not None and tenant is not None:
            # Op-rate throttle first (token bucket, queued backpressure);
            # the delay counts toward the recorded client latency.
            yield from qos.throttle(tenant)
        held: list = []     # (name, lock, mode) per tier taken
        try:
            if ns_mode is not None:
                yield from self._take(holder, "ns", self.ns_lock, ns_mode,
                                      held)
            if ino is not None:
                lock, name = self._ino_lock(ino)
                yield from self._take(holder, name, lock, ino_mode, held)
            if shard is not None:
                lock, name = self._shard_locks[shard]
                yield from self._take(holder, name, lock, None, held)
            if fact:
                yield from self._take(holder, "fact", self._fact_lock, None,
                                      held)
            penalty = 0.0
            if use_bw:
                if qos is not None:
                    # Weighted-fair gate in front of the slots: capacity
                    # matches bw_slots, so a gated op never also queues
                    # on the Resource below — the DRR grant order *is*
                    # the bandwidth admission order.  Tenant-less ops go
                    # through too (sentinel id, weight 1): an ungated op
                    # holding a slot would put gate-granted tenant ops
                    # back into an unweighted queue and void the
                    # invariant whenever traffic mixes.
                    yield from qos.gate.acquire(
                        tenant if tenant is not None else UNTENANTED)
                bw = self.bw
                waiting = bw.in_use >= bw.capacity
                queued_behind = len(bw._waiters)
                yield bw.request()
                if waiting:
                    # Oversubscription coherence/queuing cost: grows with
                    # how crowded the controller was.
                    penalty = BW_QUEUE_PENALTY_NS * (1 + queued_behind)
            try:
                clock = self.fs.clock
                clock.sync_to(max(clock.now_fs, self.base_fs + eng.now_fs))
                # Spans opened inside fn (fs.write, daemon stages) are
                # attributed to this holder's Perfetto lane; fn runs
                # without engine yields, so the track context cannot
                # leak into another simulated thread.
                with clock.capture() as cap, obs.tracer.use_track(holder):
                    result = fn()
                # extra_ns may be a callable so costs that depend on the
                # *current* schedule state (e.g. the live-client coherence
                # tax) are sampled now, with every concurrent party
                # running, not when the caller built the op.
                extra = extra_ns() if callable(extra_ns) else extra_ns
                cost_fs = cap.fs + fs_of(penalty + extra)
                if cost_fs > 0:
                    yield eng.timeout_fs(cost_fs)
            finally:
                if use_bw:
                    self.bw.release()
                    if qos is not None:
                        qos.gate.release()
        finally:
            self._release(holder, held)
        if record is not None:
            record.observe(eng.now - t_op)
        return result, cost_fs / FS_PER_NS

    def _take(self, holder: str, name: str, lock, mode, held: list):
        """One tier of :meth:`op`: checked against the lock-order DAG,
        waited for, its wait observed, noted in ``held`` for release."""
        self.validator.acquiring(holder, name)
        eng = self.eng
        t0 = eng.now
        yield lock.acquire() if mode is None else lock.acquire(mode)
        held.append((name, lock, mode))
        self._h_lock_wait.observe(eng.now - t0)
        # On the holder's lane, in the trace of the node it works on.
        tracer = self._obs.tracer
        with tracer.use_track(holder), \
                tracer.use_trace(self._node_traces.get(holder)):
            self._obs.flight.record("lock", name=name, holder=holder,
                                    wait_ns=eng.now - t0)

    def _release(self, holder: str, held: list) -> None:
        """Release what :meth:`_take` noted in ``held``, newest first."""
        for name, lock, mode in reversed(held):
            if mode is None:
                lock.release()
            else:
                lock.release(mode)
            self.validator.released(holder, name)

    # ----------------------------------------------------- admission control

    def admit(self, ino: int, holder: str, tenant: Optional[int] = None):
        """Backpressure gate: stall while the target DWQ shard is full.

        Called by :meth:`write` only — it returns whether it reserved a
        slot of the tenant's DWQ share, and :meth:`write` is the one
        place that knows how to hand that slot back.

        A no-op when the queue is unbounded (``max_shard_depth=None``,
        the paper's semantics) or the filesystem has no DWQ.  With QoS
        active and a tenant attached, the write additionally stalls
        while *its own tenant* is over its weight-proportional share of
        the total DWQ capacity — a noisy neighbor blocks itself long
        before it can fill every shard, which is what keeps well-behaved
        tenants admitting freely (see docs/TENANCY.md).
        """
        dwq = getattr(self.fs, "dwq", None)
        if dwq is None or dwq.max_depth is None:
            return False
        qos = self.qos
        s = dwq.shard_of(ino)
        # Both conditions re-checked together after every wait: a writer
        # woken by shard space must not slip past over_share() it never
        # re-tested (N waiters of one tenant would otherwise each admit
        # and overshoot the share by N).  The loop exits only when both
        # hold at once, and note_enqueued runs with no yield in between,
        # so the share reservation is atomic in simulated time.
        while True:
            if qos is not None and tenant is not None \
                    and qos.over_share(tenant):
                self._c_stalls.inc()
                t0 = self.eng.now
                ev = qos.wait_turn(tenant)
                self.kick_workers()
                yield ev
                self._h_stall.observe(self.eng.now - t0)
                continue
            if dwq.is_full(s):
                self._c_stalls.inc()
                t0 = self.eng.now
                ev = self.eng.event(f"admit:{holder}")
                self._space_waiters[s].append(ev)
                self.kick_workers()  # a stalled writer needs a drain
                yield ev
                self._h_stall.observe(self.eng.now - t0)
                continue
            break
        if qos is None or tenant is None:
            return False
        # Count the node this write is about to enqueue against the
        # tenant's share.
        qos.note_enqueued(tenant)
        return True

    def _signal_space(self, s: int) -> None:
        if self._space_waiters:
            waiters, self._space_waiters[s] = self._space_waiters[s], []
            for ev in waiters:
                if not ev.triggered:
                    ev.succeed()

    def write(self, fn: Callable[[], object], holder: str, ino: int, *,
              ns_mode: Optional[str] = None, extra_ns=0.0,
              record=None, tenant: Optional[int] = None):
        """One admitted write: ``fn`` may enqueue DWQ nodes for ``ino``.

        The whole client-side protocol, in its only home: :meth:`admit`
        (shard backpressure + the tenant's DWQ-share reservation) →
        :meth:`op` under ``ino`` exclusive and a bandwidth slot → settle
        the reservation → :meth:`kick_workers`.  The reservation is
        consumed by the node ``fn`` enqueues and released by the worker
        that finishes it; a write that enqueued nothing (hybrid inline
        completion) or raised (quota) would leak it until ``over_share``
        wedged the tenant, so it is handed back here, exactly once.
        ``fn`` runs with no engine yield inside, so the DWQ's
        enqueued-counter delta around it is exact.

        ``record`` observes the client-perceived latency: admission
        stall + op.  Generator protocol, like :meth:`op`:
        ``result, cost_ns = yield from vfs.write(...)`` — ``cost_ns`` is
        the op's modelled cost alone (what think time scales with).
        """
        t0 = self.eng.now
        reserved = yield from self.admit(ino, holder, tenant)
        queued = 0

        def _counted():
            nonlocal queued
            before = self.fs.dwq.enqueued
            try:
                return fn()
            finally:
                queued = self.fs.dwq.enqueued - before

        try:
            result, cost = yield from self.op(
                _counted if reserved else fn, holder, ns_mode=ns_mode,
                ino=ino, extra_ns=extra_ns, tenant=tenant)
        finally:
            if reserved and not queued:
                self.qos.note_cancelled(tenant)
        if record is not None:
            record.observe(self.eng.now - t0)
        self.kick_workers()
        return result, cost

    # ------------------------------------------------------------ clients

    def client(self, gen, name: str = "") -> Process:
        """Spawn a client process, tracked in the live-client gauge."""
        def _tracked():
            self.live_clients += 1
            try:
                result = yield from gen
            finally:
                self.live_clients -= 1
            return result

        return self.eng.process(_tracked(), name=name or "client")

    def run(self, clients: list[Process], dd, *,
            destage_workers: int = 1) -> tuple[float, float]:
        """Run ``clients`` to completion beside the background pools.

        The whole run protocol, in its only home: start the dedup pool
        (``dd`` is the drive policy, :class:`repro.workloads.DDMode`;
        a policy other than ``none`` on a filesystem with no dedup
        daemon is an error), then the destage pool when the filesystem
        has staging enabled; wait for the clients; drain destage
        *before* telling the dedup pool to stop — destaged writes enqueue
        DWQ nodes it must still see;
        raise if anything never finished; sync the filesystem clock to
        the engine.  Returns ``(foreground_ns, total_ns)``: the clients'
        span and the span until the pools drained too.
        """
        eng = self.eng
        self._stop = self._stop_destage = False
        workers = self._start_workers(dd) if dd.kind != "none" else []
        destagers = (self._start_destage_workers(destage_workers)
                     if self.fs.staging_enabled else [])

        def _coordinator():
            yield eng.all_of(clients)
            foreground_ns = eng.now
            self._stop_destage = True  # drain the backlog, then exit
            if destagers:
                yield eng.all_of(destagers)
            self._stop = True          # exit once the queue drains
            self.kick_workers()
            if workers:
                yield eng.all_of(workers)
            return foreground_ns, eng.now

        coord = eng.process(_coordinator(), name="coordinator")
        eng.run()
        if not coord.triggered:
            raise RuntimeError("run deadlocked: coordinator never finished")
        self.fs.clock.sync_to(max(self.fs.clock.now_fs, self.now_fs))
        return coord.value

    # ------------------------------------------------------------ worker pool

    def _start_workers(self, dd) -> list[Process]:
        """Launch the dedup worker pool: immediate workers sleep until
        kicked and then drain; delayed workers wake every
        ``interval_ms`` for up to ``batch`` nodes (split across the
        pool)."""
        if not hasattr(self.fs, "dwq"):
            raise ValueError(f"{type(self.fs).__name__} has no dedup daemon")
        nshards = self.fs.dwq.nshards
        w = min(self.workers, nshards)
        self._worker_wakes = [None] * w
        own = [[s for s in range(nshards) if s % w == i] for i in range(w)]
        return [self.eng.process(self._worker_proc(i, own[i], dd),
                                 name=f"dedup-worker-{i}")
                for i in range(w)]

    def kick_workers(self) -> None:
        """Wake every idle worker (new work, or stop requested)."""
        for ev in self._worker_wakes:
            if ev is not None and not ev.triggered:
                ev.succeed()

    # ------------------------------------------------------------ destage pool

    def _start_destage_workers(self, n: int) -> list[Process]:
        """Launch the staging destage pool.

        Each worker owns the pending inodes with ``ino % n == wid`` —
        the same partition the slabs use, so two workers never contend
        on one inode's record sequence — and replays them through the
        normal write path under the ordinary ``ino`` lock.  Nodes the
        destaged writes enqueue flow to the dedup pool exactly like a
        foreground writer's would (admission control included).
        """
        n = max(1, int(n))
        return [self.eng.process(self._destage_proc(i, n),
                                 name=f"destage-{i}")
                for i in range(n)]

    def _destage_proc(self, wid: int, pool: int):
        st = self.fs.staging
        holder = f"destage-{wid}"
        while True:
            mine = [i for i in st.pending_inos() if i % pool == wid]
            if self._stop_destage:
                # Final drain: everything left, regardless of pressure.
                inos = mine
                if not inos:
                    break
            else:
                # Pressure-driven while the workload runs: destaging is
                # deliberately lazy (NVLog drains on log-full or idle) so
                # the background pool does not steal namespace-lock and
                # bandwidth slots from the foreground it exists to
                # unburden.  The fallback path covers the extreme: a
                # completely full slab rejects the append and the writer
                # goes direct.
                inos = [i for i in mine
                        if st.slab_fill(i) >= DESTAGE_HIGH_WATER]
                if not inos:
                    yield self.eng.timeout(DESTAGE_POLL_NS)
                    continue
            for ino in inos:
                # A staged *create* destages a dentry append into the
                # parent directory: that is namespace work and pays the
                # same ns-lock + coherence bill a foreground create
                # would — just off the foreground's critical path.
                needs_ns = st.has_pending_create(ino)
                n, cost = yield from self.write(
                    lambda ino=ino: st.drain_ino(ino,
                                                 cpu=ino % self.fs.cpus),
                    holder, ino, ns_mode="w" if needs_ns else None,
                    extra_ns=(self.coherence_tax_ns if needs_ns
                              else 0.0))
                self.destage_records += n
                self.destage_busy_ns += cost

    def _pick_shard(self, own: list[int]) -> tuple[Optional[int], bool]:
        """(shard, is_steal): oldest-head own shard, else longest other.

        With QoS active, the own-shard pick is weighted-fair instead of
        oldest-first: among nonempty own shards, take the one whose head
        node belongs to the tenant with the lowest service/weight ratio
        (ties broken by node age) — per-tenant processor share tracks
        the configured weights even when one tenant dominates the queue.
        """
        dwq = self.fs.dwq
        qos = self.qos
        s = dwq.head_lane(own, None if qos is None else qos.service_ratio)
        if s is not None:
            return s, False
        return dwq.steal_victim(own), True

    def _worker_proc(self, wid: int, own: list[int], dd):
        eng = self.eng
        dwq = self.fs.dwq
        holder = f"worker-{wid}"
        pool = len(self._worker_wakes)
        while True:
            if dd.kind == "delayed":
                yield eng.timeout(dd.interval_ms * MS)
                budget = max(1, -(-dd.batch // pool))  # ceil split
            else:
                if len(dwq) == 0:
                    if self._stop:
                        break
                    wake = eng.event(f"worker{wid}-wake")
                    self._worker_wakes[wid] = wake
                    if len(dwq) == 0 and not self._stop:
                        yield wake
                    self._worker_wakes[wid] = None
                    continue
                budget = 1_000_000_000
            processed = 0
            while processed < budget:
                s, is_steal = self._pick_shard(own)
                if s is None:
                    break
                take = ((lambda s=s: dwq.steal_from(s)) if is_steal
                        else (lambda s=s: dwq.dequeue_shard(s)))
                node, cost = yield from self.op(
                    take, holder, shard=s, use_bw=False)
                self.worker_busy_ns += cost
                self._signal_space(s)
                if node is None:
                    break  # raced empty; outer loop re-checks the queue
                busy = yield from self._dedup_node(node, holder)
                self.worker_busy_ns += busy
                self.worker_nodes += 1
                processed += 1
                if self.qos is not None:
                    # The tid stamped at enqueue, NOT tenant_of(node.ino):
                    # the inode may have been unlinked while the node
                    # waited (churn), and a None here would leak the
                    # outstanding charge taken in admit() forever.
                    self.qos.note_node_done(node.tid)
            if dd.kind == "delayed" and self._stop and len(dwq) == 0:
                break

    def _dedup_node(self, node, holder: str):
        """Algorithm 1 as one engine operation per lock set.

        Inside the node's exclusive inode lock (as DeNova holds it),
        each of the daemon's phases is one operation: ``scan``;
        ``stage`` under the ``fact`` lock, so parallel workers cannot
        double-insert a fingerprint or double-stage a UC; ``commit_node``.
        A stale entry is the first alone; a node without a hit skips the
        second.
        """
        fs = self.fs
        daemon = fs.daemon
        busy = 0.0
        start_ns = self.now_ns
        held: list = []
        self._node_traces[holder] = node.trace_id
        if node.ino in fs.caches:
            lock, name = self._ino_lock(node.ino)
            yield from self._take(holder, name, lock, "w", held)

        try:
            (task, hits), cost = yield from self.op(
                lambda: daemon.scan(node), holder, use_bw=False)
            busy += cost
            if task is not None:
                if hits:
                    _, cost = yield from self.op(
                        lambda: daemon.stage(task, hits), holder, fact=True,
                        use_bw=False)
                    busy += cost
                _, cost = yield from self.op(
                    lambda: daemon.commit_node(task), holder, use_bw=False)
                busy += cost
        finally:
            self._release(holder, held)
            del self._node_traces[holder]
            # Externally-timed span: the stages above interleave with
            # other simulated threads across engine yields, so a
            # context-manager span would corrupt the tracer stack and
            # absorb other actors' charges.  Duration is this node's
            # accumulated busy ns; the trace id is the one stamped on
            # the node by the enqueuing write (0 → fresh trace).
            self._obs.emit_span(
                "dedup.process_node", start_ns, busy,
                trace_id=node.trace_id or None, track=holder, ino=node.ino)
        return busy
