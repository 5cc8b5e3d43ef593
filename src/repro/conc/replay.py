"""Sharded recovery replay: serial correctness, parallel time model.

NOVA recovers per-CPU: each recovery thread replays the inode logs that
hash to its CPU (PAPER.md §II-A).  In this simulation the replay *work*
stays sequential — tasks run one by one in their deterministic order, so
the resulting DRAM state is bit-identical regardless of worker count —
while the *charged time* is captured per task and scheduled onto a
worker pool to obtain the parallel makespan.  ``workers=1`` then
degenerates to exactly today's sequential clock behaviour.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterable

from repro.pm.clock import FS_PER_NS

__all__ = ["run_sharded", "simulate_workers"]


def simulate_workers(costs: list[int], workers: int) -> dict:
    """Makespan of a work-conserving FIFO pool of ``workers`` over
    ``costs`` (task durations in fs): tasks are handed out in order, each
    to the worker that frees up first.  Returns ``{"makespan": fs,
    "busy": total task fs}``."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    free_at = [0] * min(workers, len(costs))
    for cost in costs:
        heapq.heapreplace(free_at, free_at[0] + cost)
    return {"makespan": max(free_at, default=0), "busy": sum(costs)}


def run_sharded(clock, tasks: Iterable[Callable[[], Any]],
                workers: int) -> dict:
    """Run ``tasks`` in order, charging their combined cost as a pool.

    Each task executes immediately (so later tasks observe earlier
    tasks' state mutations exactly as in the sequential code path), with
    its simulated cost diverted into a capture.  Afterwards the captured
    per-task costs are scheduled onto ``workers`` FIFO workers and the
    clock advances by the pool's makespan.

    Returns ``{"tasks": n, "busy_ns": total, "makespan_ns": elapsed,
    "workers": workers}``.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    costs: list[int] = []
    for task in tasks:
        with clock.capture() as cap:
            task()
        costs.append(cap.fs)
    pool = simulate_workers(costs, workers)
    if pool["makespan"]:
        clock.sync_to(clock.now_fs + pool["makespan"])
    return {
        "tasks": len(costs),
        "busy_ns": pool["busy"] / FS_PER_NS,
        "makespan_ns": pool["makespan"] / FS_PER_NS,
        "workers": workers,
    }
