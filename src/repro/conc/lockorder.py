"""Runtime lock-order validation for the concurrency subsystem.

Deadlock freedom in :class:`repro.conc.vfs.ConcurrentVFS` rests on a
fixed lock hierarchy (namespace → inode → DWQ shard → FACT).
Rather than trusting the call sites, the validator *records* the
acquisition DAG as it happens: every time a simulated thread requests a
lock while holding others, edges ``held → requested`` are added to a
directed graph over lock instances.  An acquisition whose edge would
close a cycle is a latent deadlock — two threads could interleave into a
circular wait — and fails fast with :class:`LockOrderViolation`, naming
the cycle, instead of letting the DES hang.

The graph is over lock *instances*, not classes: ``ino:3 → ino:5`` in
one thread and ``ino:5 → ino:3`` in another is a real deadlock even
though both edges stay inside the "inode" tier.
"""

from __future__ import annotations

from collections import defaultdict

__all__ = ["LockOrderValidator", "LockOrderViolation"]


class LockOrderViolation(RuntimeError):
    """An acquisition would create a cycle in the lock-order graph."""

    def __init__(self, holder: str, requested: str, cycle: list[str]):
        self.holder = holder
        self.requested = requested
        self.cycle = cycle
        super().__init__(
            f"{holder} acquiring {requested!r} closes lock-order cycle: "
            + " -> ".join(cycle))


class LockOrderValidator:
    """Acquisition-order DAG with fail-fast cycle detection.

    Call :meth:`acquiring` *before* blocking on a lock and
    :meth:`released` after dropping it.  Holders are opaque string names
    (one per simulated thread); locks are opaque string names (one per
    lock instance).  Re-entrant acquisition of a held lock is rejected
    as a self-deadlock — the DES locks are not re-entrant.
    """

    def __init__(self):
        self._held: dict[str, list[str]] = defaultdict(list)
        self._edges: dict[str, set[str]] = defaultdict(set)
        self.edges_recorded = 0
        self.checks = 0

    # ------------------------------------------------------------ protocol

    def acquiring(self, holder: str, lock: str) -> None:
        """Record intent to acquire; raise on any cycle-forming edge."""
        held = self._held[holder]
        if lock in held:
            raise LockOrderViolation(holder, lock, [lock, lock])
        self.checks += 1
        for h in held:
            if lock not in self._edges[h]:
                cycle = self._find_path(lock, h)
                if cycle is not None:
                    raise LockOrderViolation(holder, lock, cycle + [lock])
                self._edges[h].add(lock)
                self.edges_recorded += 1
        held.append(lock)

    def released(self, holder: str, lock: str) -> None:
        held = self._held.get(holder)
        if held is not None and lock in held:
            held.remove(lock)

    # ------------------------------------------------------------ queries

    def _find_path(self, src: str, dst: str) -> list[str] | None:
        """DFS: a path src ~> dst means edge dst -> src closes a cycle."""
        stack = [(src, [src])]
        seen = {src}
        while stack:
            cur, path = stack.pop()
            if cur == dst:
                return path
            for nxt in self._edges.get(cur, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, path + [nxt]))
        return None
