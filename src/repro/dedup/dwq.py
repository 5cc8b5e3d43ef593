"""The Deduplication Work Queue (paper §IV-B1).

A DRAM FIFO of "write entry awaiting deduplication" nodes.  Writers
enqueue after committing a write entry; the deduplication daemon
dequeues.  Enqueue/dequeue cost a DRAM structure touch — negligible next
to NVM accesses, which is the paper's argument for why sharing the DWQ
between foreground writers and the daemon costs < 1 % throughput.

Lifecycle:

* **clean shutdown** — nodes are serialized into the device's DWQ save
  area (16 bytes per node) and restored on the next mount;
* **crash** — the queue is *rebuilt* by a fast scan of all write entries,
  re-enqueuing those whose dedupe-flag is still ``dedupe_needed``
  (Inconsistency Handling I).

The queue also records per-node lingering time (dequeue − enqueue), the
metric behind the paper's Fig. 10 CDF.
"""

from __future__ import annotations

import struct
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.nova.layout import PAGE_SIZE, Geometry, Superblock
from repro.obs import MetricsRegistry, ObsHub
from repro.pm.clock import SimClock
from repro.pm.device import PMDevice
from repro.pm.latency import CpuModel

__all__ = ["DWQ", "DWQNode", "HINT_REGISTERED"]

#: Residency buckets: 100 ns .. 100 s of simulated time, wide enough for
#: immediate-mode drains and the paper's delayed(750 ms, m) backlog tail.
RESIDENCY_BUCKETS_NS = (
    1e2, 1e3, 1e4, 1e5, 1e6, 5e6, 1e7, 5e7, 1e8, 2.5e8, 5e8, 7.5e8,
    1e9, 1.5e9, 2e9, 3e9, 5e9, 1e10, 3e10, 1e11,
)

#: A ``weak_hints`` value: the write path already registered the page.
HINT_REGISTERED = -1

_NODE_FMT = "<QQ"  # ino, write-entry addr
_NODE_BYTES = struct.calcsize(_NODE_FMT)


@dataclass
class DWQNode:
    """One pending dedup unit: a committed write entry.

    ``trace_id`` carries the causal root (the client write that enqueued
    this node) across the queue handoff — DRAM-only, never persisted:
    the on-PM save format stays 16 bytes/node, and nodes restored on a
    later mount start fresh traces (their originating write's trace died
    with the previous process).

    ``tid`` is the owning tenant, captured at enqueue time while the
    inode is guaranteed alive.  QoS completion accounting must read this
    stored id, never re-resolve ownership from the inode: an unlink can
    land between enqueue and the worker's dequeue (fleet churn does
    exactly that), after which ``tenant_of(ino)`` is None and the
    tenant's outstanding-node charge would leak forever.  DRAM-only like
    ``trace_id``; nodes restored/rebuilt at mount carry None and were
    never charged, so the accounting stays symmetric.

    ``weak_hints`` (hybrid inline mode) maps each page offset to the
    weak fingerprint the write path computed, or to "registered unique"
    (:data:`HINT_REGISTERED`: the daemon neither reads nor hashes it).
    DRAM-only too: a restored node carries None and re-runs the weak path.
    """

    ino: int
    entry_addr: int
    enqueue_time_ns: float = 0.0
    trace_id: int = 0
    tid: Optional[int] = None
    weak_hints: Optional[dict] = None
    #: Global FIFO stamp, set by :meth:`DWQ.enqueue`.
    _seq: int = field(default=0, init=False, repr=False, compare=False)


class DWQ:
    """DRAM FIFO with lingering-time accounting and PM save/restore.

    Nodes sit in per-CPU lanes (lane ``ino % nshards``, the inode logs'
    affinity), so writers of different CPUs never share a queue head; a
    stamp per node (``_seq``) keeps the *global* FIFO order that
    :meth:`dequeue`, :meth:`snapshot` and the save area follow, so
    ``daemon.drain`` and clean shutdown see one FIFO whatever the
    layout.  A queue starts as one lane; :meth:`relay` re-lays it in
    place for the worker pool, which drains its own lanes
    (:meth:`dequeue_shard`), steals from the others (:meth:`steal_from`)
    and, with ``max_depth`` set, stalls writers before a full lane
    (:meth:`is_full`) — backpressure the paper's unbounded queue never
    applies (``max_depth=None``).
    """

    def __init__(self, cpu: CpuModel, clock: SimClock,
                 obs: Optional[ObsHub] = None):
        self._cpu = cpu
        self._clock = clock
        #: ino -> tenant id (or None), consulted at enqueue time to
        #: stamp :attr:`DWQNode.tid`.  Set by the owning filesystem
        #: (``TenantManager.tenant_of``).
        self.tenant_resolver: Optional[Callable[[int], Optional[int]]] = None
        self.nshards = 1
        self.max_depth: Optional[int] = None
        self._shards: list[deque[DWQNode]] = [deque()]
        self._depth = 0     # nodes in all lanes; __len__ runs per op
        self._stamp = 0
        self.enqueued = 0
        self.dequeued = 0
        self.peak_length = 0
        self.lingering_ns: list[float] = []
        self.steals = 0
        self.steals_by_shard = [0]
        self._obs = obs
        registry = obs.registry if obs is not None else MetricsRegistry()
        self._g_depth = registry.gauge(
            "dwq.depth", help="write entries currently awaiting dedup")
        registry.counter_fn("dwq.enqueued_total", lambda: self.enqueued)
        registry.counter_fn("dwq.dequeued_total", lambda: self.dequeued)
        # Fig. 10 as a metrics query: residency = dequeue − enqueue time.
        self._h_residency = registry.histogram(
            "dwq.residency_ns", buckets=RESIDENCY_BUCKETS_NS,
            help="simulated ns a node spent queued (Fig. 10 CDF)")

    def relay(self, nshards: int, max_depth: Optional[int]) -> None:
        """Re-lay the queue in place over ``nshards`` lanes.

        The backlog moves to its new lanes with its stamps, so the
        global FIFO order and every node's lingering time are kept, as
        are ``enqueued``, ``dequeued``, ``peak_length`` and the
        lingering record.  Steal counts are per layout and start at 0.
        With an obs hub the layout's metrics are (re-)pointed here:
        ``dwq.steals_total`` and one ``dwq.shard<s>.depth`` gauge per
        lane; a gauge of an earlier, wider layout reads 0.
        """
        if nshards < 1:
            raise ValueError("nshards must be >= 1")
        if max_depth is not None and max_depth < 1:
            raise ValueError("max_depth must be >= 1 (or None for unbounded)")
        backlog = self.snapshot()
        self.nshards = nshards
        self.max_depth = max_depth
        self._shards = [deque() for _ in range(nshards)]
        for node in backlog:
            self._shards[self.shard_of(node.ino)].append(node)
        self.steals = 0
        self.steals_by_shard = [0] * nshards
        if self._obs is None:
            return
        registry = self._obs.registry
        registry.counter_fn("dwq.steals_total", lambda: self.steals,
                            help="nodes taken from another worker's shard")
        for s in range(nshards):
            registry.gauge_fn(f"dwq.shard{s}.depth",
                              lambda s=s: self.shard_len(s),
                              help=f"pending dedup nodes in shard {s}")

    def __len__(self) -> int:
        return self._depth

    # ---------------------------------------------------------- operations

    def enqueue(self, node: DWQNode) -> None:
        """Writer side: stamp and append (one DRAM touch)."""
        self._clock.advance(self._cpu.dram_touch_ns)
        node.enqueue_time_ns = self._clock.now_ns
        if node.trace_id == 0 and self._obs is not None:
            node.trace_id = self._obs.tracer.current_trace_id
        if node.tid is None and self.tenant_resolver is not None:
            node.tid = self.tenant_resolver(node.ino)
        self._stamp += 1
        node._seq = self._stamp
        self._shards[self.shard_of(node.ino)].append(node)
        self._depth += 1
        self.enqueued += 1
        self._g_depth.set(self._depth)
        if self._depth > self.peak_length:
            self.peak_length = self._depth
        if self._obs is not None:
            self._obs.flight.record("dwq.enqueue", ino=node.ino,
                                    depth=self._depth,
                                    trace_id=node.trace_id)

    def dequeue(self) -> Optional[DWQNode]:
        """Daemon side: pop the oldest node, recording lingering time."""
        self._clock.advance(self._cpu.dram_touch_ns)
        s = self.head_lane(range(self.nshards))
        if s is None:
            return None
        return self._pop(s)

    def _pop(self, s: int) -> DWQNode:
        node = self._shards[s].popleft()
        self._depth -= 1
        self.dequeued += 1
        self._g_depth.set(self._depth)
        linger = self._clock.now_ns - node.enqueue_time_ns
        self.lingering_ns.append(linger)
        self._h_residency.observe(linger)
        return node

    def snapshot(self) -> list[DWQNode]:
        """Queued nodes in global FIFO order (recovery, save, re-lay)."""
        return sorted((n for lane in self._shards for n in lane),
                      key=lambda n: n._seq)

    def clear(self) -> None:
        for lane in self._shards:
            lane.clear()
        self._depth = 0
        self._g_depth.set(0)

    # ------------------------------------------------------------ lanes

    def shard_of(self, ino: int) -> int:
        """Lane affinity matches the per-CPU inode-log placement."""
        return ino % self.nshards

    def shard_len(self, s: int) -> int:
        """Nodes in lane ``s``; 0 for a lane an earlier layout had."""
        return len(self._shards[s]) if s < self.nshards else 0

    def is_full(self, s: int) -> bool:
        """Admission-control gate for writers targeting lane ``s``."""
        return (self.max_depth is not None
                and len(self._shards[s]) >= self.max_depth)

    def head_lane(self, lanes, rank: Optional[Callable] = None
                  ) -> Optional[int]:
        """The lane among ``lanes`` whose head node is oldest, or None
        when they are all empty.  With ``rank`` (tenant id -> key) the
        head with the lowest ``(rank(head.tid), age)`` wins instead: the
        worker pool's weighted-fair pick under QoS."""
        best = best_key = None
        for s in lanes:
            lane = self._shards[s]
            if lane:
                head = lane[0]
                key = (head._seq if rank is None
                       else (rank(head.tid), head._seq))
                if best_key is None or key < best_key:
                    best, best_key = s, key
        return best

    def steal_victim(self, own) -> Optional[int]:
        """The longest lane not in ``own`` (ties toward the lowest
        index, so schedules stay deterministic), or None if all are
        empty."""
        victim, longest = None, 0
        for s, lane in enumerate(self._shards):
            if s not in own and len(lane) > longest:
                victim, longest = s, len(lane)
        return victim

    def dequeue_shard(self, s: int) -> Optional[DWQNode]:
        """Pop the oldest node of one lane (a worker's own)."""
        self._clock.advance(self._cpu.dram_touch_ns)
        if not self._shards[s]:
            return None
        node = self._pop(s)
        self._handoff_span("dwq.dequeue", node, s)
        return node

    def steal_from(self, victim: int) -> Optional[DWQNode]:
        """Work stealing: pop the oldest node of another worker's lane.

        The caller picks the victim (:meth:`steal_victim`); the queue
        records the steal per victim lane.
        """
        self._clock.advance(self._cpu.dram_touch_ns)
        if not self._shards[victim]:
            return None  # raced empty while the thief awaited the lock
        node = self._pop(victim)
        self.steals += 1
        self.steals_by_shard[victim] += 1
        self._handoff_span("dwq.steal", node, victim)
        return node

    def _handoff_span(self, kind: str, node: DWQNode, s: int) -> None:
        """A tiny span on the lane's own Perfetto track, carrying the
        node's trace id — the visual link between the enqueuing write's
        lane and the draining worker's.  Emitted via ``tracer.emit`` (no
        auto-histogram: the duration is a constant DRAM touch)."""
        if self._obs is None:
            return
        self._obs.tracer.emit(
            kind, self._clock.now_ns, self._cpu.dram_touch_ns,
            trace_id=node.trace_id, track=f"shard:{s}", ino=node.ino)

    # ------------------------------------------------------------ persistence

    def capacity_on(self, geo: Geometry) -> int:
        return geo.dwq_save_pages * PAGE_SIZE // _NODE_BYTES

    #: Superblock sentinel: the queue outgrew the save area; the next
    #: mount must rebuild it from the dedupe-flag scan instead.
    OVERFLOWED = (1 << 64) - 1

    def save(self, dev: PMDevice, geo: Geometry) -> int:
        """Clean-shutdown persistence: write nodes to the save area.

        Returns how many nodes were saved.  A backlog larger than the
        save area cannot be silently truncated — dropped nodes would
        leave their entries ``dedupe_needed`` forever on a clean mount —
        so overflow stores the :attr:`OVERFLOWED` sentinel and the next
        mount falls back to the crash-style flag-scan rebuild.
        """
        base = geo.dwq_save_page * PAGE_SIZE
        cap = self.capacity_on(geo)
        if self._obs is not None:
            self._obs.flight.record("persist", what="dwq.save",
                                    nodes=len(self), cap=cap)
        if len(self) > cap:
            Superblock(dev).set_dwq_saved_count(self.OVERFLOWED)
            return 0
        nodes = self.snapshot()
        if nodes:
            blob = b"".join(struct.pack(_NODE_FMT, n.ino, n.entry_addr)
                            for n in nodes)
            dev.write(base, blob, nt=True)
            dev.sfence()
        Superblock(dev).set_dwq_saved_count(len(nodes))
        return len(nodes)

    def restore(self, dev: PMDevice, geo: Geometry) -> int:
        """Clean-mount restore: reload saved nodes into DRAM.

        Returns the node count, or -1 when the shutdown overflowed the
        save area and the caller must rebuild by scanning dedupe-flags.
        """
        count = Superblock(dev).dwq_saved_count
        if count == self.OVERFLOWED:
            Superblock(dev).set_dwq_saved_count(0)
            return -1
        if count == 0:
            return 0
        base = geo.dwq_save_page * PAGE_SIZE
        raw = dev.read(base, count * _NODE_BYTES)
        for i in range(count):
            ino, addr = struct.unpack_from(_NODE_FMT, raw, i * _NODE_BYTES)
            self.enqueue(DWQNode(ino=ino, entry_addr=addr))
        Superblock(dev).set_dwq_saved_count(0)
        return count

