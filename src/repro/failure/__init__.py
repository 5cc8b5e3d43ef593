"""Systematic crash injection and consistency checking.

The paper argues DeNova's failure consistency *qualitatively* (§V-C),
walking through the crash windows of the dedup, reclaim and reorder
paths.  This package turns that argument into an executable test: the
device exposes a hook on every persistence event (each ``sfence`` that
commits data), and :func:`sweep_crash_points` runs a scenario once,
crashing a fork of its device at *every* such event — before and after
the commit — then mounts, recovers, and runs the caller's invariant
checks.

That is strictly stronger coverage than the paper's: instead of three
hand-picked windows, every durable-state boundary the workload ever
crosses is exercised.
"""

from repro.failure.injector import (
    CrashOutcome,
    count_persist_events,
    run_with_crash,
    sweep_crash_points,
)
from repro.failure.invariants import check_fs_invariants, InvariantViolation

__all__ = [
    "CrashOutcome",
    "count_persist_events",
    "run_with_crash",
    "sweep_crash_points",
    "check_fs_invariants",
    "InvariantViolation",
]
