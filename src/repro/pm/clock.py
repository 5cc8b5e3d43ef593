"""Simulated nanosecond clock.

Every modelled cost (device access, hash computation, lock hand-off) is
charged here rather than measured with wall time — the guides' "measure,
don't guess" rule applied to a simulator: costs are explicit, inspectable
numbers instead of noisy wall-clock samples.

Two usage modes:

* **Direct mode** — single simulated thread.  ``advance()`` moves ``now_ns``
  forward; elapsed simulated time *is* the result.
* **Capture mode** — used by the DES runner.  A :class:`CostCapture` pushed
  onto the clock absorbs all charges without moving ``now_ns`` (the DES
  engine owns time in that mode); the runner then sleeps the captured span
  on the simulated thread, so contention and interleaving are modelled by
  the engine, not the clock.
"""

from __future__ import annotations

from functools import reduce
from itertools import repeat
from operator import add
from typing import Optional

import numpy as np

__all__ = ["SimClock", "CostCapture"]

# ``advance_n`` below this many charges folds with ``reduce`` (≈ 20 ns an
# add, no set-up); from it on with ``np.add.accumulate`` (≈ 3 ns an add
# after ≈ 2 µs of array set-up).  Both are running sums — the adds of the
# ``advance`` loop, left to right.  Never ``sum()``: 3.12 compensates it.
_ACCUMULATE_FROM = 40


class CostCapture:
    """Accumulates charges while active on a clock's capture stack."""

    __slots__ = ("total_ns",)

    def __init__(self) -> None:
        self.total_ns: float = 0.0


class SimClock:
    """A monotonically-advancing simulated clock, charged in nanoseconds."""

    __slots__ = ("now_ns", "charged_ns", "_captures")

    def __init__(self, start_ns: float = 0.0):
        self.now_ns: float = start_ns
        #: Total work ever charged, regardless of mode.  ``now_ns`` deltas
        #: are wrong for span durations in capture mode (charges go to the
        #: capture) and across ``sync_to`` (time moves without work being
        #: done); ``charged_ns`` deltas measure modelled work in both modes.
        self.charged_ns: float = 0.0
        self._captures: list[CostCapture] = []

    def advance(self, ns: float) -> None:
        """Charge ``ns`` of simulated work."""
        if ns < 0:
            raise ValueError(f"negative time charge: {ns}")
        self.charged_ns += ns
        if self._captures:
            self._captures[-1].total_ns += ns
        else:
            self.now_ns += ns

    def advance_n(self, ns: float, n: int) -> None:
        """Charge ``ns`` of simulated work ``n`` times.

        By contract ``n`` calls of ``advance(ns)`` — the same float adds
        to ``charged_ns`` and to the innermost capture (or ``now_ns``),
        in the same order — executed as one fold in C.  On a clock whose
        ``advance`` was replaced (a recording subclass, a tracer's patch)
        it *is* those calls, so the replacement is handed every charge.
        """
        if ns < 0:
            raise ValueError(f"negative time charge: {ns}")
        if type(self).advance is not _ADVANCE:
            for _ in range(n):
                self.advance(ns)
            return
        capture = self._captures[-1] if self._captures else None
        moved = self.now_ns if capture is None else capture.total_ns
        if n < _ACCUMULATE_FROM:
            self.charged_ns = reduce(add, repeat(ns, n), self.charged_ns)
            moved = reduce(add, repeat(ns, n), moved)
        else:
            # Row 0 holds the two accumulators, every other row the
            # charge: the last row of the running sum down the rows.
            sums = np.full((n + 1, 2), ns, dtype=np.float64)
            sums[0] = self.charged_ns, moved
            self.charged_ns, moved = np.add.accumulate(
                sums, axis=0, out=sums)[-1].tolist()
        if capture is None:
            self.now_ns = moved
        else:
            capture.total_ns = moved

    def sync_to(self, now_ns: float) -> None:
        """Align with an external time source (the DES engine).

        Timestamps recorded inside filesystem code (DWQ enqueue times,
        access-latency samples) stay meaningful in capture mode because the
        runner syncs the clock to engine time before each operation.
        """
        if now_ns < self.now_ns - 1e-9:
            raise ValueError(
                f"clock would move backwards: {self.now_ns} -> {now_ns}"
            )
        self.now_ns = now_ns

    def capture(self) -> "_CaptureContext":
        """Context manager: redirect charges into a :class:`CostCapture`."""
        return _CaptureContext(self)

    @property
    def capturing(self) -> bool:
        return bool(self._captures)


#: The plain ``advance``: what ``advance_n`` may fold instead of calling.
_ADVANCE = SimClock.advance


class _CaptureContext:
    __slots__ = ("_clock", "capture")

    def __init__(self, clock: SimClock):
        self._clock = clock
        self.capture: Optional[CostCapture] = None

    def __enter__(self) -> CostCapture:
        self.capture = CostCapture()
        self._clock._captures.append(self.capture)
        return self.capture

    def __exit__(self, *exc) -> None:
        popped = self._clock._captures.pop()
        assert popped is self.capture, "unbalanced capture stack"
