"""Simulated clock, kept as an exact integer count of femtoseconds.

Every modelled cost (device access, hash computation, lock hand-off) is
charged here rather than measured with wall time — the guides' "measure,
don't guess" rule applied to a simulator: costs are explicit, inspectable
numbers instead of noisy wall-clock samples.

Charges are given in (float) nanoseconds and rounded once, on entry, to
whole femtoseconds (:func:`fs_of`); from there on simulated time is a
Python ``int``, so a total is the exact sum of its charges whatever
their order or grouping.  ``now_ns`` / ``charged_ns`` / ``total_ns`` are
read-only float views of those integers, for readers; nothing that moves
time is ever fed one.

Two usage modes:

* **Direct mode** — single simulated thread.  ``advance()`` moves ``now``
  forward; elapsed simulated time *is* the result.
* **Capture mode** — used by the DES runner.  A :class:`CostCapture` pushed
  onto the clock absorbs all charges without moving ``now`` (the DES
  engine owns time in that mode); the runner then sleeps the captured span
  on the simulated thread, so contention and interleaving are modelled by
  the engine, not the clock.
"""

from __future__ import annotations

__all__ = ["SimClock", "CostCapture", "FS_PER_NS", "fs_of"]

#: The clock's quantum: every constant in ``pm/latency.py`` is a whole
#: number of femtoseconds, and a rounded ``nbytes / bw`` term is off by
#: at most half of one.
FS_PER_NS = 1_000_000
_INF = float("inf")


def fs_of(ns: float) -> int:
    """The one rounding rule: ``ns`` nanoseconds as whole femtoseconds."""
    if not -_INF < ns < _INF:                       # NaN fails both
        raise ValueError(f"non-finite time charge: {ns}")
    return round(ns * FS_PER_NS)


class CostCapture:
    """Accumulates charges while active on a clock's capture stack —
    ``with clock.capture() as cap:`` pushes it, leaving pops it."""

    __slots__ = ("fs", "_clock")

    def __init__(self, clock: "SimClock") -> None:
        self.fs = 0
        self._clock = clock

    @property
    def total_ns(self) -> float:
        return self.fs / FS_PER_NS

    def __enter__(self) -> "CostCapture":
        self._clock._captures.append(self)
        return self

    def __exit__(self, *exc) -> None:
        popped = self._clock._captures.pop()
        assert popped is self, "unbalanced capture stack"


class SimClock:
    """A monotonically-advancing simulated clock, charged in nanoseconds."""

    __slots__ = ("now_fs", "charged_fs", "_captures")

    def __init__(self):
        self.now_fs = 0
        #: Total work ever charged, regardless of mode.  ``now`` deltas
        #: are wrong for span durations in capture mode (charges go to the
        #: capture) and across ``sync_to`` (time moves without work being
        #: done); ``charged`` deltas measure modelled work in both modes.
        self.charged_fs = 0
        self._captures: list[CostCapture] = []

    @property
    def now_ns(self) -> float:
        return self.now_fs / FS_PER_NS

    @property
    def charged_ns(self) -> float:
        return self.charged_fs / FS_PER_NS

    def advance(self, ns: float) -> None:
        """Charge ``ns`` of simulated work."""
        if not 0 <= ns < _INF:                      # NaN fails both
            raise ValueError(f"non-finite or negative time charge: {ns}")
        fs = round(ns * FS_PER_NS)      # fs_of, inlined on the hot path
        self.charged_fs += fs
        if self._captures:
            self._captures[-1].fs += fs
        else:
            self.now_fs += fs

    def advance_n(self, ns: float, n: int) -> None:
        """Charge ``ns`` of simulated work ``n`` times: ``n`` ``advance(ns)``.

        One multiplication; on a clock that does not :attr:`folds` it *is*
        those calls, so the replaced ``advance`` is handed every charge.
        """
        if ns < 0 or n < 0:
            raise ValueError(f"negative time charge: {ns} x {n}")
        if type(self).advance is not _ADVANCE:
            for _ in range(n):
                self.advance(ns)
            return
        self.charge_fs(fs_of(ns) * n)

    def charge_fs(self, fs: int, ns: float | None = None) -> None:
        """Charge ``fs`` = ``fs_of(ns)``, rounded once by the caller; a
        clock that does not :attr:`folds` is handed ``advance(ns)``.  A
        sum of charges has no one ``ns``: it comes here only if it folds."""
        if type(self).advance is not _ADVANCE:
            self.advance(ns)
            return
        self.charged_fs += fs
        if self._captures:
            self._captures[-1].fs += fs
        else:
            self.now_fs += fs

    @property
    def folds(self) -> bool:
        """False once ``advance`` is replaced (a recording subclass, a
        tracer's patch): it must then be handed every charge on its own."""
        return type(self).advance is _ADVANCE

    def sync_to(self, now_fs: int) -> None:
        """Align with an external time source (the DES engine), in fs.

        Timestamps recorded inside filesystem code (DWQ enqueue times,
        access-latency samples) stay meaningful in capture mode because the
        runner syncs the clock to engine time before each operation.
        """
        if not isinstance(now_fs, int):
            raise TypeError(f"sync_to takes whole femtoseconds, not "
                            f"{type(now_fs).__name__} {now_fs!r}")
        if now_fs < self.now_fs:
            raise ValueError(
                f"clock would move backwards: {self.now_fs} -> {now_fs} fs")
        self.now_fs = now_fs

    def capture(self) -> CostCapture:
        """Context manager: redirect charges into a :class:`CostCapture`."""
        return CostCapture(self)


#: The plain ``advance``: what ``advance_n`` may multiply instead of call.
_ADVANCE = SimClock.advance

