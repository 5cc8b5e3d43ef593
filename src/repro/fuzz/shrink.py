"""Greedy reproducer shrinking (delta debugging).

When a sequence fails the differential check, the full generated
sequence is rarely the story — usually three or four ops conspire.  The
shrinker runs classic ddmin: try dropping ever-smaller chunks of the
sequence, keeping any reduction that still fails, then finish with a
one-op-at-a-time sweep until a fixed point.

The runner's failure predicate re-runs the *whole* differential case
(clean pass plus crash sweeps) on each candidate, so shrinking is
deterministic: candidate sequences are judged by exactly the machinery
that found the original failure.  Minimized sequences serialize through
:class:`repro.workloads.trace.Trace` and replay as standalone
regression tests.
"""

from __future__ import annotations

from typing import Callable

from repro.workloads.trace import TraceOp

__all__ = ["shrink"]

MAX_ROUNDS = 200   # candidate replays one shrink may spend


def shrink(ops: list[TraceOp],
           is_failing: Callable[[list[TraceOp]], bool]) -> list[TraceOp]:
    """Minimize ``ops`` while ``is_failing`` stays true.

    ``is_failing(ops)`` must be deterministic and must hold for the
    input sequence; the returned sequence is 1-minimal up to the round
    budget (removing any single remaining op makes the failure vanish).
    """
    if not is_failing(ops):
        raise ValueError("shrink() called with a passing sequence")
    current = list(ops)
    rounds = 0

    # Phase 1: chunked removal, halving granularity (ddmin).
    chunk = max(1, len(current) // 2)
    while chunk >= 1 and rounds < MAX_ROUNDS:
        i = 0
        removed_any = False
        while i < len(current) and rounds < MAX_ROUNDS:
            candidate = current[:i] + current[i + chunk:]
            if not candidate:
                i += chunk
                continue
            rounds += 1
            if is_failing(candidate):
                current = candidate
                removed_any = True
                # stay at the same index: the next chunk slid into place
            else:
                i += chunk
        if chunk > 1:
            chunk //= 2
        elif not removed_any:
            break
    return current
