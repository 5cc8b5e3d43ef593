"""The one sweep engine: violation fields, one counting pass, structure."""

import ast

import pytest

import repro.failure.injector as injector
import repro.fuzz.diff as diff
from repro.fuzz.diff import (FuzzConfig, Scenario, differential_scenario,
                             sweep_case)
from repro.pm import PMDevice
from repro.workloads.trace import TraceOp
from tests._code_index import src_tree, src_trees
from tests._seams import overriding

OPS = [TraceOp(op="create", path=f"/f{i}") for i in range(3)]


class _Boom(Exception):
    pass


MODES, PHASES = ("discard", "torn"), ("pre", "post")


@pytest.mark.parametrize("target", [(3, "post", "torn"), (1, "pre", "torn"),
                                    (2, "post", "discard")])
def test_violation_names_the_crash_point(target, monkeypatch):
    """A toy oracle that rejects one chosen (point, phase, mode): the
    engine turns it into exactly one Violation carrying those three and
    a flight dump, abandons that mode, and still sweeps the other.

    An oracle that answers by crash point, not by image, is one sharing
    recoveries would skip: every image is made unique here."""
    cfg = overriding(FuzzConfig, modes=MODES, phases=PHASES)(
        seed=0, budget=10 ** 6)
    build = differential_scenario(OPS, cfg).build
    clean = sweep_case(Scenario(build, lambda rec, progress: None), cfg)
    assert clean.ok
    n = clean.crash_points // 4          # stride 1: every event, 4 combos

    crashing = []                        # (point, phase, mode) being checked
    crash_fork = injector._crash_fork

    def noted(dev, point, phase, mode, seed):
        crashing[:] = [(point, phase, mode)]
        return crash_fork(dev, point, phase, mode, seed)

    monkeypatch.setattr(injector, "_crash_fork", noted)
    monkeypatch.setattr(PMDevice, "media_key", lambda dev: object())
    progress_seen = []

    def oracle(rec, progress):
        progress_seen.append(progress)
        if crashing == [target]:
            raise _Boom("toy oracle tripped")

    res = sweep_case(Scenario(build, oracle), cfg)
    assert len(res.violations) == 1
    v = res.violations[0]
    point, phase, mode = target
    assert (v.point, v.phase, v.mode) == target
    assert (v.stage, v.kind) == ("sweep", "invariant")
    assert "toy oracle tripped" in v.detail
    assert f"crash@{point} ({phase}-commit, mode={mode})" in str(v)
    assert v.flight["reason"] == "fuzz:sweep"
    # Counted as a replay visits them: the failing mode's points up to
    # and including the failing one (every pre point before any post
    # point), and all 2n of the other mode, which the failure does not
    # stop.
    assert res.crash_points == PHASES.index(phase) * n + point + 2 * n
    # Engine-held progress: ticks of the torn workload, 0..len(OPS).
    assert min(progress_seen) == 0 and max(progress_seen) == len(OPS)


def test_two_modes_count_persist_events_once(monkeypatch):
    """A 2-mode case runs the counting pass once, not once per mode (and
    not a third time inside each sweep)."""
    calls = []
    real = injector.count_persist_events

    def counting(build):
        calls.append(1)
        return real(build)

    monkeypatch.setattr(injector, "count_persist_events", counting)
    monkeypatch.setattr(diff, "count_persist_events", counting)
    cfg = overriding(FuzzConfig, modes=("discard", "torn"))(seed=0, budget=8)
    res = sweep_case(differential_scenario(OPS, cfg), cfg)
    assert res.ok and res.crash_points > 0
    assert len(calls) == 1


def test_pipeline_violation_carries_location(monkeypatch):
    """The pipeline scenario reports through the same engine: make its
    oracle see staging residue and the Violation has point/phase/mode
    and a flight dump, which the old backup/repl runners never filled."""
    import repro.fuzz.pipeline as pipeline

    def with_residue(fs):
        return {**diff.fs_namespace(fs), "/.backup_stage/x": ("dir",)}

    cfg = overriding(FuzzConfig, modes=("discard",), phases=("post",))(
        seed=2, seq_ops=24, budget=8)
    case = pipeline.prepare_pipeline_case(cfg, ("fz",))
    monkeypatch.setattr(pipeline, "fs_namespace", with_residue)
    res = sweep_case(pipeline.pipeline_scenario(case, cfg, ("fz",), False),
                     cfg)
    v, = res.violations
    assert (v.point, v.phase, v.mode) == (1, "post", "discard")
    assert "staging residue" in v.detail and v.flight is not None
    assert res.crash_points == 1


# ------------------------------------------------------------------ structure

_INJECTOR = {"count_persist_events", "run_with_crash", "sweep_crash_points"}
_ENGINE = {"failure/injector.py", "fuzz/diff.py"}


def _calls(tree, names):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in names:
                yield name, node.lineno


def test_one_sweep_engine():
    """The injector is driven from one place.  A new crash sweep is a
    ``Scenario`` handed to ``sweep_case``, not a fourth copy of the
    count → stride → mode × phase loop, and that loop is the injector's
    one pass."""
    sites = []
    for rel, tree in src_trees():
        for name, line in _calls(tree, _INJECTOR):
            sites.append((rel, name, line))
    stray = [s for s in sites if s[0] not in _ENGINE]
    assert not stray, f"crash injection outside the sweep engine: {stray}"

    # Inside the engine module: one function counts and sweeps.
    tree = src_tree("fuzz/diff.py")
    owners = {}
    for fn in [n for n in tree.body if isinstance(n, ast.FunctionDef)]:
        for name, _line in _calls(fn, _INJECTOR):
            owners.setdefault(name, []).append(fn.name)
    assert owners == {"count_persist_events": ["sweep_case"],
                      "sweep_crash_points": ["sweep_case"]}, owners
    mode_loops = sorted({
        (rel, fn.name)
        for rel, tree in src_trees()
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, (ast.For, ast.comprehension))
        and ast.unparse(node.iter).split(".")[-1] == "modes"})
    assert mode_loops == [("failure/injector.py", "_one_pass")], mode_loops
