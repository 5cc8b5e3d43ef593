"""The crash sweep as a replay per crash point: the oracle for the one-pass
engine (:func:`repro.fuzz.diff.sweep_case`).

This is the engine as it was before it ran each case once and forked
the crashed images: every point rebuilds the scenario and replays it to
that persist event with one hook, crashes the device itself, and mounts
it — modes outermost, then phases, then points, each mode abandoned at
its first failure.  Nothing is shared between points.  The check is the
engine's own (mount, invariants, oracle, drain, settle, invariants, flag
convergence); ``test_sweep_reference.py`` requires the same images,
clocks and ``CaseResult``.

It deliberately shares only the scenario, its configuration and the
check's building blocks with the implementation.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.failure.injector import CrashCheckFailed
from repro.failure.invariants import InvariantViolation
from repro.fuzz import diff
from repro.fuzz.diff import CaseResult, Scenario, Violation
from repro.pm.device import CrashRequested


def count_events(build) -> int:
    dev, scenario = build()
    counter = [0]

    def on_persist(_n, _d):
        counter[0] += 1

    dev.hooks.on_persist = on_persist
    scenario()
    dev.close()
    return counter[0]


def replay_to(build, point: int, phase: str, mode: str, seed: int):
    """``(crashed?, device)``: the scenario replayed to its ``point``-th
    persist event and crashed there."""
    dev, scenario = build()
    counter = [0]

    def trip(_n, _d):
        counter[0] += 1
        if counter[0] == point:
            raise CrashRequested(f"{phase}-persist", point)

    if phase == "pre":
        dev.hooks.on_persist = trip
    else:
        dev.hooks.on_persist_done = trip
    try:
        scenario()
    except CrashRequested:
        rng = np.random.default_rng(seed + point) if mode == "torn" else None
        dev.crash(mode=mode, rng=rng)
        dev.recover_view()
        return True, dev
    finally:
        dev.hooks.on_persist = dev.hooks.on_persist_done = None
    return False, dev


def nested(outer: Scenario, cfg, point: int, phase: str,
           mode: str) -> Scenario:
    """:func:`tests.fuzz.scenarios.nested_scenario`, its outer crash
    replayed."""
    def build(tick):
        _crashed, dev = replay_to(lambda: outer.build(tick), point, phase,
                                  mode, cfg.seed)
        return dev, lambda: diff._fs_cls(cfg).mount(dev, cpus=cfg.cpus)

    return Scenario(build, outer.oracle)


def sweep(scenario: Scenario, cfg, note=lambda point, phase, mode: None):
    """``(CaseResult, {(point, phase, mode): (sha256, now_fs,
    charged_fs)} of every crashed image, {(point, phase, mode)} of the
    devices left open)``.  ``note`` is told each point before its check."""
    result, images, left_open = CaseResult(), {}, set()
    combos = len(cfg.modes) * len(cfg.phases)
    if not combos or cfg.budget <= 0:
        return result, images, left_open
    progress = [0]

    def tick():
        progress[0] += 1

    def build():
        progress[0] = 0
        return scenario.build(tick)

    def check(dev):
        result.crash_points += 1
        rec = diff._fs_cls(cfg).mount(dev, cpus=cfg.cpus)
        try:
            diff.check_fs_invariants(rec)
            scenario.oracle(rec, progress[0])
            rec.daemon.drain()
            diff._settle(rec)
            diff.check_fs_invariants(rec)
            if not diff.flags_converged(rec):
                raise InvariantViolation(
                    "in_process entries survive recovery + drain")
        except Exception as exc:
            if getattr(exc, "flight_dump", None) is None:
                exc.flight_dump = rec.obs.flight.dump(reason="fuzz:sweep")
            raise

    per_combo = max(1, cfg.budget // combos)
    if per_combo == 1:
        total = stride = 1
    else:
        total = count_events(build)
        stride = max(1, -(-total // per_combo))
    for mode in cfg.modes:
        try:
            for phase in cfg.phases:
                for point in range(1, total + 1, stride):
                    crashed, dev = replay_to(build, point, phase, mode,
                                             cfg.seed)
                    if crashed:
                        clock = dev.clock
                        images[(point, phase, mode)] = (
                            hashlib.sha256(dev.read_silent(0, dev.size))
                            .hexdigest(), clock.now_fs, clock.charged_fs)
                        note(point, phase, mode)
                        try:
                            check(dev)
                        except Exception as exc:
                            left_open.add((point, phase, mode))
                            raise CrashCheckFailed(point, phase, mode,
                                                   exc) from exc
                    dev.close()
        except AssertionError as exc:
            result.violations.append(Violation(
                kind="invariant", detail=str(exc), stage="sweep",
                point=getattr(exc, "point", None),
                phase=getattr(exc, "phase", None), mode=mode,
                flight=getattr(exc.__cause__, "flight_dump", None)))
    return result, images, left_open
