"""Per-CPU sharded Deduplication Work Queue (paper §IV-B1).

DeNova keeps one DWQ per core so foreground writers never contend on a
single queue head.  :class:`ShardedDWQ` realizes that layout on top of
the base :class:`~repro.dedup.dwq.DWQ` accounting: nodes are routed to
shard ``ino % nshards`` (the same per-CPU affinity as the inode logs),
each shard has an independent deque, and a monotonic stamp preserves the
*global* FIFO order so the single-threaded drive paths (``daemon.drain``
during prepopulate, clean-shutdown save/restore) behave byte-for-byte
like the unsharded queue.

Extras the worker pool needs:

* :meth:`dequeue_shard` — pop a specific shard (a worker's own lane);
* :meth:`steal` — when a worker's lane drains it takes the oldest node
  of the *longest* other shard (work stealing, counted per shard);
* :meth:`is_full` — bounded-depth admission control: with ``max_depth``
  set, writers stall before enqueueing into a full shard (backpressure),
  which the paper's unbounded DRAM queue never does — ``max_depth=None``
  keeps the paper's semantics.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.dedup.dwq import DWQ, DWQNode
from repro.obs import ObsHub
from repro.pm.clock import SimClock
from repro.pm.latency import CpuModel

__all__ = ["ShardedDWQ"]


class ShardedDWQ(DWQ):
    """DWQ with per-CPU shards, work stealing, and bounded-depth gates."""

    def __init__(self, cpu: CpuModel, clock: SimClock, nshards: int,
                 obs: Optional[ObsHub] = None,
                 max_depth: Optional[int] = None):
        if nshards < 1:
            raise ValueError("nshards must be >= 1")
        if max_depth is not None and max_depth < 1:
            raise ValueError("max_depth must be >= 1 (or None for unbounded)")
        self.nshards = nshards
        self.max_depth = max_depth
        self._shards: list[deque[DWQNode]] = [deque() for _ in range(nshards)]
        self._depth = 0     # nodes in all shards; __len__ runs per op
        self._stamp = 0
        self.steals = 0
        self.steals_by_shard = [0] * nshards
        super().__init__(cpu, clock, obs=obs)
        if obs is not None:
            registry = obs.registry
            registry.counter_fn("dwq.steals_total", lambda: self.steals,
                                help="nodes taken from another worker's "
                                     "shard")
            for s in range(nshards):
                registry.gauge_fn(
                    f"dwq.shard{s}.depth",
                    lambda s=s: len(self._shards[s]),
                    help=f"pending dedup nodes in shard {s}")

    # ------------------------------------------------------- storage hooks

    def shard_of(self, ino: int) -> int:
        """Shard affinity matches the per-CPU inode-log placement."""
        return ino % self.nshards

    def _append(self, node: DWQNode) -> None:
        self._stamp += 1
        node._seq = self._stamp
        self._shards[self.shard_of(node.ino)].append(node)
        self._depth += 1

    def _popleft(self) -> Optional[DWQNode]:
        best = None
        for shard in self._shards:
            if shard and (best is None or shard[0]._seq < best[0]._seq):
                best = shard
        if best is None:
            return None
        self._depth -= 1
        return best.popleft()

    def _items(self) -> list[DWQNode]:
        merged = [n for shard in self._shards for n in shard]
        merged.sort(key=lambda n: n._seq)
        return merged

    def _clear_items(self) -> None:
        for shard in self._shards:
            shard.clear()
        self._depth = 0

    def __len__(self) -> int:
        return self._depth

    # ----------------------------------------------------------- shard API

    def shard_len(self, s: int) -> int:
        return len(self._shards[s])

    def is_full(self, s: int) -> bool:
        """Admission-control gate for writers targeting shard ``s``."""
        return (self.max_depth is not None
                and len(self._shards[s]) >= self.max_depth)

    def dequeue_shard(self, s: int) -> Optional[DWQNode]:
        """Pop the oldest node of one shard (a worker's own lane)."""
        self._clock.advance(self._cpu.dram_touch_ns)
        shard = self._shards[s]
        if not shard:
            return None
        node = shard.popleft()
        self._depth -= 1
        self._account_dequeue(node)
        self._handoff_span("dwq.dequeue", node, s)
        return node

    def steal_from(self, victim: int) -> Optional[DWQNode]:
        """Work stealing: pop the oldest node of another worker's shard.

        The caller picks the victim (the pool steals from the longest
        shard, ties toward the lowest index, so schedules stay
        deterministic); the queue records the steal per victim shard.
        """
        self._clock.advance(self._cpu.dram_touch_ns)
        shard = self._shards[victim]
        if not shard:
            return None  # raced empty while the thief awaited the lock
        node = shard.popleft()
        self._depth -= 1
        self.steals += 1
        self.steals_by_shard[victim] += 1
        self._account_dequeue(node)
        self._handoff_span("dwq.steal", node, victim)
        return node

    def _handoff_span(self, kind: str, node: DWQNode, s: int) -> None:
        """A tiny span on the shard's own Perfetto lane, carrying the
        node's trace id — the visual link between the enqueuing write's
        lane and the draining worker's.  Emitted via ``tracer.emit`` (no
        auto-histogram: the duration is a constant DRAM touch)."""
        if self._obs is None:
            return
        self._obs.tracer.emit(
            kind, self._clock.now_ns, self._cpu.dram_touch_ns,
            trace_id=node.trace_id, track=f"shard:{s}", ino=node.ino)

    # ---------------------------------------------------------- migration

    def adopt(self, old: DWQ) -> None:
        """Take over an unsharded queue's backlog and statistics.

        Used when :class:`~repro.conc.vfs.ConcurrentVFS` swaps a mounted
        filesystem's DWQ: pending nodes keep their enqueue stamps (their
        lingering times stay honest) and the cumulative counters carry
        over so ``dwq.*_total`` metrics never move backwards.
        """
        if self.tenant_resolver is None:
            self.tenant_resolver = old.tenant_resolver
        self.enqueued = old.enqueued
        self.dequeued = old.dequeued
        self.peak_length = max(self.peak_length, old.peak_length)
        self.lingering_ns = list(old.lingering_ns)
        for node in old._items():
            self._append(node)
        old._clear_items()
        self._g_depth.set(len(self))
