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
from dataclasses import dataclass
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


class DWQ:
    """DRAM FIFO with lingering-time accounting and PM save/restore.

    Raw queue storage is reached only through the ``_append`` /
    ``_popleft`` / ``_items`` / ``_clear_items`` hooks, so subclasses
    (``repro.conc.sdwq.ShardedDWQ``) can change the layout — per-CPU
    shards — while inheriting the accounting and the on-PM save format
    byte for byte.
    """

    def __init__(self, cpu: CpuModel, clock: SimClock,
                 obs: Optional[ObsHub] = None):
        self._cpu = cpu
        self._clock = clock
        #: ino -> tenant id (or None), consulted at enqueue time to
        #: stamp :attr:`DWQNode.tid`.  Set by the owning filesystem
        #: (``TenantManager.tenant_of``); carried across the
        #: ``ShardedDWQ.adopt`` swap.
        self.tenant_resolver: Optional[Callable[[int], Optional[int]]] = None
        self._q: deque[DWQNode] = deque()
        self.enqueued = 0
        self.dequeued = 0
        self.peak_length = 0
        self.lingering_ns: list[float] = []
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

    # ------------------------------------------------------- storage hooks

    def _append(self, node: DWQNode) -> None:
        self._q.append(node)

    def _popleft(self) -> Optional[DWQNode]:
        return self._q.popleft() if self._q else None

    def _items(self) -> list[DWQNode]:
        """Queued nodes in global FIFO order."""
        return list(self._q)

    def _clear_items(self) -> None:
        self._q.clear()

    def __len__(self) -> int:
        return len(self._q)

    # ---------------------------------------------------------- operations

    def enqueue(self, node: DWQNode) -> None:
        """Writer side: stamp and append (one DRAM touch)."""
        self._clock.advance(self._cpu.dram_touch_ns)
        node.enqueue_time_ns = self._clock.now_ns
        if node.trace_id == 0 and self._obs is not None:
            node.trace_id = self._obs.tracer.current_trace_id
        if node.tid is None and self.tenant_resolver is not None:
            node.tid = self.tenant_resolver(node.ino)
        self._append(node)
        self.enqueued += 1
        self._g_depth.set(len(self))
        if len(self) > self.peak_length:
            self.peak_length = len(self)
        if self._obs is not None:
            self._obs.flight.record("dwq.enqueue", ino=node.ino,
                                    depth=len(self),
                                    trace_id=node.trace_id)

    def dequeue(self) -> Optional[DWQNode]:
        """Daemon side: pop the oldest node, recording lingering time."""
        self._clock.advance(self._cpu.dram_touch_ns)
        node = self._popleft()
        if node is None:
            return None
        self._account_dequeue(node)
        return node

    def _account_dequeue(self, node: DWQNode) -> None:
        self.dequeued += 1
        self._g_depth.set(len(self))
        linger = self._clock.now_ns - node.enqueue_time_ns
        self.lingering_ns.append(linger)
        self._h_residency.observe(linger)

    def snapshot(self) -> list[DWQNode]:
        """Queued nodes in FIFO order (read-only view for recovery)."""
        return self._items()

    def clear(self) -> None:
        self._clear_items()
        self._g_depth.set(0)

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
        nodes = self._items()
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

