"""The one-pass crash sweep against the replay per point it replaced.

``sweep_case`` runs a case's workload once and crashes a fork of the
device at every point due, inside the persist hook; a crashed image
byte-equal (with its clock and progress) to one that passed at the same
event is not mounted again.  ``replay_reference.py`` is the engine as it
was: one rebuild, replay and mount per point.  Over every kind of
scenario at budgets 2, 4, 16 and 64 (the benchmark sweeps at 4, the
fuzz tests at 8 to 10**6), each crashed image must be the replay's —
sha256, ``now_fs`` and ``charged_fs`` — and the ``CaseResult`` equal,
with recoveries shared and with every image made unique.  Failing cases
report what the replay reports: the same violations, points counted and
devices left open.
"""

import hashlib

import pytest

from repro.failure import injector
from repro.fuzz import diff, pipeline
from repro.fuzz.diff import (FuzzConfig, Scenario, differential_scenario,
                             sweep_case)
from repro.fuzz.gen import generate_concurrent_sequence, generate_sequence
from repro.pm import PMDevice
from repro.workloads.trace import TraceOp
from tests._seams import overriding
from tests.fuzz.scenarios import nested_scenario

from . import replay_reference as reference

BUDGETS = (2, 4, 16, 64)


def _ops(cfg):
    if cfg.clients > 1:
        return generate_concurrent_sequence(cfg.seed, 0, cfg.seq_ops,
                                            clients=cfg.clients)
    return generate_sequence(cfg.seed, 0, cfg.seq_ops)


def _differential(cfg):
    scenario = differential_scenario(_ops(cfg), cfg)
    return scenario, scenario


def _pipeline(names, relocate):
    def make(cfg):
        case = pipeline.prepare_pipeline_case(cfg, names)
        scenario = pipeline.pipeline_scenario(case, cfg, names, relocate)
        return scenario, scenario
    return make


def _nested(cfg):
    outer = differential_scenario(_ops(cfg), cfg)
    return (nested_scenario(outer, cfg, 9, "post", "torn"),
            reference.nested(outer, cfg, 9, "post", "torn"))


#: name -> (scenario factory, FuzzConfig fields)
CASES = {
    "differential seed 0": (_differential, {"seed": 0}),
    "differential seed 1": (_differential, {"seed": 1}),
    "differential seed 2": (_differential, {"seed": 2}),
    "backup": (_pipeline(("fz",), False), {"seed": 3}),
    "repl": (_pipeline(("fz1", "fz2"), True), {"seed": 3}),
    "nested": (_nested, {"seed": 1}),
    "hybrid": (_differential, {"seed": 0, "dedup_mode": "hybrid"}),
    "clients=3": (_differential, {"seed": 0, "clients": 3}),
    "staging": (_differential, {"seed": 0, "staging": True}),
}


def _digest(dev):
    return (hashlib.sha256(dev.read_silent(0, dev.size)).hexdigest(),
            dev.clock.now_fs, dev.clock.charged_fs)


@pytest.fixture
def forked(monkeypatch):
    """``((point, phase, mode), fork, its digest)`` of every crashed
    fork, in the order they were made."""
    log = []
    crash_fork = injector._crash_fork

    def logged(dev, point, phase, mode, seed):
        out = crash_fork(dev, point, phase, mode, seed)
        log.append(((point, phase, mode), out.dev, _digest(out.dev)))
        return out

    monkeypatch.setattr(injector, "_crash_fork", logged)
    return log


@pytest.fixture
def mounts(monkeypatch):
    """How many recovered images went through the full check."""
    seen = [0]
    check = diff.check_fs_invariants

    def counted(fs):
        seen[0] += 1
        return check(fs)

    monkeypatch.setattr(diff, "check_fs_invariants", counted)
    return seen


def _in_tier1(case: str, budget: int) -> bool:
    """Every case at budgets 2 and 4, one of each kind at 16, and one at
    64; the rest (0.5–2.5 s each) run in the fuzz job."""
    return (budget <= 4 or case == "differential seed 0"
            or budget == 16 and not case.startswith("differential"))


@pytest.mark.parametrize("case, budget", [
    pytest.param(case, budget,
                 marks=[] if _in_tier1(case, budget) else [pytest.mark.fuzz])
    for case in CASES for budget in BUDGETS])
def test_one_pass_lands_where_the_replay_did(case, budget, forked, mounts,
                                             monkeypatch):
    make, fields = CASES[case]
    cfg = FuzzConfig(seq_ops=10, budget=budget, **fields)
    new, ref = make(cfg)
    want, images, _open = reference.sweep(ref, cfg)
    assert want.ok and want.crash_points == len(images) > 0

    mounts[0] = 0
    assert sweep_case(new, cfg) == want
    if case == "nested":
        # Each build (a counting run's too) crashes the outer case first;
        # the sweep's forks are later in simulated time than that one.
        outer = forked[0][2]
        forked[:] = [entry for entry in forked if entry[2] != outer]
    assert {at: digest for at, _dev, digest in forked} == images
    assert len(forked) == len(images)
    # One full check (two invariant passes) per distinct image; the
    # clock in the digest tells the events apart.
    assert mounts[0] == 2 * len(set(images.values()))

    # With no two images alike nothing is shared, and nothing changes.
    monkeypatch.setattr(PMDevice, "media_key", lambda dev: object())
    mounts[0] = 0
    assert sweep_case(new, cfg) == want
    assert mounts[0] == 2 * want.crash_points


def test_identical_crashed_images_share_one_recovery(forked, mounts):
    """Event #1 of the e2e ``crash_sweep``'s first case: ``pre``
    ``discard`` is the freshly formatted device, ``pre`` ``torn`` kept
    some of the fence's words, and both ``post`` images are the fence
    committed — three images, three full checks for four points."""
    cfg = FuzzConfig(seed=42, seq_ops=8, budget=4)
    res = sweep_case(differential_scenario(
        generate_sequence(42, 0, 8), cfg), cfg)
    digests = [digest for _at, _dev, digest in forked]
    assert res.ok and res.crash_points == len(digests) == 4
    assert len(set(digests)) == 3 and digests[2] == digests[3]
    assert mounts[0] == 2 * 3


class _Boom(Exception):
    pass


def _is_closed(dev) -> bool:
    try:
        dev.read_silent(0, 1)
    except RuntimeError as exc:
        assert str(exc) == "device is closed"
        return True
    return False


@pytest.mark.parametrize("modes", [("discard", "torn"), ("torn", "discard")])
def test_failures_are_reported_as_the_replay_reports_them(modes, forked,
                                                          monkeypatch):
    """``discard`` fails at post(2) and at pre(5), ``torn`` at post(2)
    only.  The replay's ``discard`` stops at pre(5) and never reaches
    post(2); the one pass meets post(2) first, and its pre(5) failure
    must supersede it — counted points, violations and the one device
    each mode leaves open all as the replay has them.  (The toy oracle
    answers by crash point, not by image: every image is made unique,
    or post(2) of one mode would share the pass of an equal image.)"""
    monkeypatch.setattr(PMDevice, "media_key", lambda dev: object())
    cfg = overriding(FuzzConfig, modes=modes)(seed=0, budget=10 ** 6)
    ops = [TraceOp(op="create", path=f"/f{i}") for i in range(3)]
    trips = {(2, "post", "discard"), (5, "pre", "discard"),
             (2, "post", "torn")}
    at = [None]                     # the point being checked

    def oracle(rec, progress):
        if at[0] in trips:
            raise _Boom(f"toy oracle tripped at {at[0]}")

    scenario = Scenario(differential_scenario(ops, cfg).build, oracle)
    want, images, want_open = reference.sweep(
        scenario, cfg, note=lambda *point: at.__setitem__(0, point))
    assert want_open == {(5, "pre", "discard"), (2, "post", "torn")}
    assert len(want.violations) == 2

    crash_fork = injector._crash_fork

    def noted(dev, point, phase, mode, seed):
        at[0] = (point, phase, mode)
        return crash_fork(dev, point, phase, mode, seed)

    monkeypatch.setattr(injector, "_crash_fork", noted)
    assert sweep_case(scenario, cfg) == want
    assert {at for at, dev, _d in forked if not _is_closed(dev)} == want_open
    # The one pass also forked post(2) of discard, which the replay never
    # reached; every image the replay did reach is the same.
    got = {at: digest for at, _dev, digest in forked}
    assert len(got) == len(forked) and (2, "post", "discard") in got
    assert images.items() <= got.items()


def test_a_failing_image_is_checked_in_full():
    """An oracle that rejects whatever recovers with two ops committed —
    a verdict of (media, clock, progress) like a real one's, so sharing
    stays on.  Both modes' first failing images are byte-equal (``post``,
    nothing left volatile to tear): the second is mounted again and
    fails again, as in the replay, not passed on the first one's key."""
    cfg = overriding(FuzzConfig, phases=("post",))(seed=0, budget=10 ** 6)
    ops = [TraceOp(op="create", path=f"/f{i}") for i in range(3)]

    def oracle(rec, progress):
        if progress == 2:
            raise _Boom("two ops in")

    scenario = Scenario(differential_scenario(ops, cfg).build, oracle)
    want, images, want_open = reference.sweep(scenario, cfg)
    assert len({at[0] for at in want_open}) == 1
    assert len({images[at] for at in want_open}) == 1 < len(want_open)
    assert sweep_case(scenario, cfg) == want
