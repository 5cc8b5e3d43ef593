"""Crash-point enumeration over persistence events.

A *crash point* is one persistence event (an ``sfence`` that commits at
least one cache line) in one of two phases:

* ``pre``  — power fails just before the fence completes: the lines it
  would have committed are lost (plus everything else volatile);
* ``post`` — power fails just after: those lines are durable, everything
  still volatile at that instant is lost.

``mode="torn"`` additionally lets every volatile 8-byte word
independently persist or vanish, seeded for reproducibility.

The caller provides ``build()`` returning ``(dev, scenario)`` where
``scenario()`` performs the workload on a freshly-made filesystem.  The
sweep runs it once: at each crash point, inside the persist hook, every
mode crashes a :meth:`~repro.pm.device.PMDevice.fork` of the device for
``check`` while the workload waits.  The function that called ``build``
closes that device on every exit (its memory serves the next device),
and each fork once it passed; :func:`run_with_crash` hands its fork on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from repro.pm.device import CrashRequested, PMDevice

__all__ = ["count_persist_events", "run_with_crash", "sweep_crash_points",
           "CrashOutcome", "CrashCheckFailed"]


@dataclass
class CrashOutcome:
    """What happened when a scenario was crashed at one point."""

    point: int
    phase: str
    crashed: bool          # False: scenario finished before reaching point
    dev: PMDevice


class CrashCheckFailed(AssertionError):
    """``check`` rejected the state recovered from one crash point."""

    def __init__(self, point: int, phase: str, mode: str, cause: Exception):
        super().__init__(
            f"recovery check failed after crash at persistence "
            f"event #{point} ({phase}-commit, mode={mode}): {cause}")
        self.point, self.phase, self.mode = point, phase, mode
        self.__cause__ = cause


def count_persist_events(build: Callable[[], tuple[PMDevice, Callable]]
                         ) -> int:
    """Run the scenario to completion, counting persistence events."""
    return _one_pass(*build(), None, (), (), (), 0)[2]


def _crash_fork(dev: PMDevice, point: int, phase: str, mode: str,
                seed: int) -> CrashOutcome:
    """A fork of ``dev``, crashed at this point and reopened."""
    fork = dev.fork()
    fork.crash(mode, np.random.default_rng(seed + point) if mode == "torn"
               else None)
    fork.recover_view()
    return CrashOutcome(point=point, phase=phase, crashed=True, dev=fork)


def _one_pass(dev: PMDevice, scenario: Callable[[], None],
              check: Optional[Callable[[CrashOutcome], None]],
              points: Sequence[int], phases: tuple, modes: tuple,
              seed: int) -> tuple[dict, int, int]:
    """Run ``scenario`` once; at each of ``points`` (ascending) in each
    phase, hand ``check`` a crashed fork of ``dev`` per mode; close
    ``dev``.  Returns what a replay per point reports — ``{mode: its
    first failure in phase-major order}`` (``check`` raising, or the
    workload before the next point due; the failing forks stay open)
    and the points checked — and the persistence events run."""
    rank = {phase: i for i, phase in enumerate(phases)}
    end = (len(phases), 0)                  # a key after every point's
    reached = dict.fromkeys(phases, 0)     # points due, reached per phase
    failed: dict = {}                       # mode -> (key, failure, fork)
    event = [0]

    def fail(mode, key, failure, fork=None):
        old = failed.get(mode)
        if old is None or key < old[0]:     # earlier in replay order
            if old and old[2]:
                old[2].close()
            failed[mode] = (key, failure, fork)

    def hook(phase):
        def at_event(_n: int, dev: PMDevice) -> None:
            event[0] += phase == "pre"
            point, i = event[0], reached.get(phase, len(points))
            if i < len(points) and points[i] == point:
                reached[phase] = i + 1
                key = (rank[phase], point)
                for mode in modes:
                    if mode in failed and failed[mode][0] < key:
                        continue
                    out = _crash_fork(dev, point, phase, mode, seed)
                    try:
                        check(out)
                    except Exception as exc:
                        fail(mode, key, CrashCheckFailed(
                            point, phase, mode, exc), out.dev)
            if phase == "post" and points and point >= points[-1]:
                raise CrashRequested("sweep done", point)
        return at_event

    dev.hooks.on_persist, dev.hooks.on_persist_done = hook("pre"), hook("post")
    try:
        scenario()
    except CrashRequested:
        pass
    except Exception as exc:
        due = [(rank[ph], points[i]) for ph, i in reached.items()
               if i < len(points)]
        if not due:
            raise
        for mode in modes:
            fail(mode, min(due), exc)
    finally:
        dev.hooks.on_persist = dev.hooks.on_persist_done = None
        dev.close()
    tested = sum((rank[ph], p) <= failed.get(mode, (end,))[0]
                 for mode in modes for ph, i in reached.items()
                 for p in points[:i])
    return {m: failed[m][1] for m in modes if m in failed}, tested, event[0]


def run_with_crash(build: Callable[[], tuple[PMDevice, Callable]],
                   point: int, phase: str = "pre", mode: str = "discard",
                   seed: int = 0) -> CrashOutcome:
    """Run the scenario, crashing at the ``point``-th persistence event.

    Returns a fork of the device as the crash left it (reverted to its
    durable image and reopened), ready for a recovery mount.  If the
    scenario finishes before reaching ``point``, ``crashed`` is False and
    ``dev`` is the scenario's device, closed.
    """
    if phase not in ("pre", "post"):
        raise ValueError(f"phase must be 'pre' or 'post', not {phase!r}")
    if point < 1:
        raise ValueError("points are numbered from 1")
    dev, scenario = build()
    kept: list[CrashOutcome] = []
    failures = _one_pass(dev, scenario, kept.append, [point], (phase,),
                         (mode,), seed)[0]
    if failures:                    # the workload raised before the point
        raise failures[mode]
    return kept[0] if kept else CrashOutcome(point=point, phase=phase,
                                             crashed=False, dev=dev)


def sweep_crash_points(
    build: Callable[[], tuple[PMDevice, Callable]],
    check: Callable[[PMDevice, int, str], None],
    phases: Iterable[str] = ("pre", "post"),
    mode: str | tuple = "discard",
    stride: int = 1,
    seed: int = 0,
    total: Optional[int] = None,
) -> int:
    """Crash at every ``stride``-th persistence event (``total`` is the
    event count if known) in one run, in each phase and each of ``mode``
    (one or a tuple), and hand each recovered fork to ``check(dev,
    point, phase)``, which raises on a violation.  Returns the number of
    points checked; a failure raises :class:`CrashCheckFailed` naming its
    point — the first failing mode's, with ``failures`` (mode -> failure)
    and ``tested`` on it.
    """
    phases = tuple(phases)
    if not set(phases) <= {"pre", "post"}:
        raise ValueError(f"phases must be 'pre' or 'post', not {phases!r}")
    if total is None:
        total = count_persist_events(build)
    points = range(1, total + 1, stride)

    def checked(out: CrashOutcome) -> None:
        check(out.dev, out.point, out.phase)
        out.dev.close()

    failures, tested, _ = _one_pass(
        *build(), checked, points, phases,
        (mode,) if isinstance(mode, str) else tuple(mode), seed)
    if failures:
        first = next(iter(failures.values()))
        first.failures, first.tested = failures, tested
        raise first
    return tested
