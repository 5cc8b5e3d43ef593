"""Weighted-fair admission: DRR gate, token buckets, DWQ shares.

Three mechanisms, all deterministic functions of simulated time and
arrival order (no wall clock, no unseeded randomness — the
schedule-permutation determinism test depends on it):

* :class:`DRRGate` — a deficit-round-robin scheduler in front of the
  bandwidth slots.  Capacity equals the slot count, per-tenant FIFO
  queues, each deficit refilled by the tenant's weight per round in
  sorted tenant-id order, so the grant sequence depends only on what is
  queued, not on which waiter happened to arrive first within a round.
* :class:`TokenBucket` — GCRA-style op-rate throttling on simulated
  time.  A reservation may drive the bucket negative; later arrivals
  inherit the debt, which serializes a burst into the configured rate
  without dropping anything (backpressure queues, never fails).
* DWQ shares (in :class:`TenantQoS`) — each tenant may have at most a
  weight-proportional share of the bounded DWQ capacity outstanding.
  A tenant over its share stalls *itself* in ``ConcurrentVFS.admit``
  while others admit freely — the isolation mechanism behind the
  noisy-neighbor baseline in ``benchmarks/bench_tenants.py``.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

__all__ = ["TokenBucket", "DRRGate", "TenantQoS", "UNTENANTED"]

#: Sentinel tenant id for ops with no tenant attached.  They still pass
#: the DRR gate (at weight 1) so the invariant "gate capacity == bw
#: slots, hence the DRR grant order is the bandwidth admission order"
#: holds even when tenant and non-tenant traffic mix — an ungated op
#: could otherwise occupy a slot a gate-granted tenant op then queues
#: behind.  Negative so it can never collide with a registry tid.
UNTENANTED = -1


class TokenBucket:
    """Deterministic token bucket over simulated nanoseconds."""

    def __init__(self, rate_per_s: float, burst: Optional[float] = None):
        if rate_per_s <= 0:
            raise ValueError("token rate must be positive")
        self.rate = float(rate_per_s)
        self.burst = float(burst) if burst is not None else self.rate
        self.tokens = self.burst
        self.last_ns = 0.0

    def reserve(self, now_ns: float, cost: float = 1.0) -> float:
        """Consume ``cost`` tokens; return the ns to wait before acting.

        Always consumes (possibly into debt) so concurrent reservations
        serialize: the n-th over-burst arrival waits n debt intervals.
        """
        elapsed = max(0.0, now_ns - self.last_ns)
        self.last_ns = max(self.last_ns, now_ns)
        self.tokens = min(self.burst, self.tokens + elapsed * self.rate
                          * 1e-9)
        self.tokens -= cost
        if self.tokens >= 0:
            return 0.0
        return -self.tokens / self.rate * 1e9


class DRRGate:
    """Deficit-round-robin admission over a fixed concurrency capacity."""

    def __init__(self, eng, capacity: int,
                 weight_of: Callable[[int], int]):
        if capacity < 1:
            raise ValueError("gate capacity must be >= 1")
        self.eng = eng
        self.capacity = capacity
        self.weight_of = weight_of
        self.in_flight = 0
        self.queues: dict[int, deque] = {}
        self.deficit: dict[int, float] = {}
        #: Grant order, one tenant id per admission — the determinism
        #: test's observable.
        self.admission_log: list[int] = []
        self.waits = 0

    def _grant(self, tid: int) -> None:
        self.in_flight += 1
        self.admission_log.append(tid)

    def acquire(self, tid: int):
        """Generator: admit now, or queue until a release dispatches us."""
        if self.in_flight < self.capacity and not self.queues:
            self._grant(tid)
            return
        self.waits += 1
        ev = self.eng.event(f"drr:{tid}")
        self.queues.setdefault(tid, deque()).append(ev)
        self._dispatch()
        if not ev.triggered:
            yield ev

    def release(self) -> None:
        self.in_flight -= 1
        self._dispatch()

    def _dispatch(self) -> None:
        """Grant queued waiters by DRR until capacity is exhausted.

        Iterating active tenants in sorted-id order (rather than a
        rotating pointer) keeps the grant order a pure function of the
        queued multiset — different arrival interleavings of the same
        ops produce the same per-tenant admission sequence.
        """
        while self.in_flight < self.capacity and self.queues:
            granted = False
            for tid in sorted(self.queues):
                q = self.queues.get(tid)
                if not q:
                    continue
                self.deficit[tid] = (self.deficit.get(tid, 0.0)
                                     + max(1, self.weight_of(tid)))
                while (q and self.deficit[tid] >= 1.0
                       and self.in_flight < self.capacity):
                    self.deficit[tid] -= 1.0
                    ev = q.popleft()
                    self._grant(tid)
                    granted = True
                    if not ev.triggered:
                        ev.succeed()
                if not q:
                    del self.queues[tid]
                    self.deficit.pop(tid, None)
            if not granted and self.in_flight >= self.capacity:
                break
            if not granted and not any(self.queues.values()):
                break


class TenantQoS:
    """Per-mount QoS state shared by ConcurrentVFS and its workers."""

    def __init__(self, eng, manager, bw_slots: int,
                 dwq_capacity: Optional[int] = None,
                 op_rate_per_s: Optional[float] = None):
        self.eng = eng
        self.manager = manager
        self.gate = DRRGate(eng, bw_slots, self.weight_of)
        self.dwq_capacity = dwq_capacity
        self.op_rate = op_rate_per_s
        self.buckets: dict[int, TokenBucket] = {}
        self.outstanding: dict[int, int] = {}   # tid -> DWQ nodes in flight
        self.service: dict[int, int] = {}       # tid -> nodes processed
        self.dwq_waiters: dict[int, list] = {}

    # ------------------------------------------------------------ weights

    def weight_of(self, tid: Optional[int]) -> int:
        reg = self.manager.registry
        info = reg.tenants.get(tid) if (reg and tid is not None) else None
        return info.weight if info is not None else 1

    def _total_weight(self) -> int:
        reg = self.manager.registry
        if not reg or not reg.tenants:
            return 1
        return sum(t.weight for t in reg.tenants.values()) or 1

    def share_of(self, tid: Optional[int]) -> Optional[int]:
        """Weight-proportional slice of the bounded DWQ capacity."""
        if self.dwq_capacity is None or tid is None:
            return None
        return max(1, int(self.dwq_capacity * self.weight_of(tid)
                          / self._total_weight()))

    def service_ratio(self, tid: Optional[int]) -> float:
        if tid is None:
            return 0.0
        return self.service.get(tid, 0) / max(1, self.weight_of(tid))

    # ------------------------------------------------------------ op rate

    def throttle(self, tid: Optional[int]):
        """Generator: pay the tenant's token-bucket delay (0 = pass)."""
        if self.op_rate is None or tid is None:
            return
        bucket = self.buckets.get(tid)
        if bucket is None:
            bucket = self.buckets[tid] = TokenBucket(self.op_rate)
        delay = bucket.reserve(self.eng.now)
        if delay > 0:
            yield self.eng.timeout(delay)

    # ------------------------------------------------------------ DWQ shares

    def over_share(self, tid: Optional[int]) -> bool:
        share = self.share_of(tid)
        return (share is not None
                and self.outstanding.get(tid, 0) >= share)

    def note_enqueued(self, tid: Optional[int]) -> None:
        if tid is not None:
            self.outstanding[tid] = self.outstanding.get(tid, 0) + 1

    def note_cancelled(self, tid: Optional[int]) -> None:
        """Undo ``note_enqueued`` for a write that failed after admit."""
        self._done(tid, served=False)

    def note_node_done(self, tid: Optional[int]) -> None:
        self._done(tid, served=True)

    def _done(self, tid: Optional[int], served: bool) -> None:
        if tid is None:
            return
        self.outstanding[tid] = max(0, self.outstanding.get(tid, 0) - 1)
        if served:
            self.service[tid] = self.service.get(tid, 0) + 1
        if not self.over_share(tid):
            waiters = self.dwq_waiters.pop(tid, None)
            if waiters:
                for ev in waiters:
                    if not ev.triggered:
                        ev.succeed()

    def wait_turn(self, tid: int):
        """Register a DWQ-share waiter event for ``tid`` (caller yields)."""
        ev = self.eng.event(f"qos-dwq:{tid}")
        self.dwq_waiters.setdefault(tid, []).append(ev)
        return ev
