"""Nested crashes: tear the recovery mount of an already-crashed image.

The fourth scenario of the sweep engine (``nested_scenario``): the image
is what an outer differential sequence left behind when it crashed at
one persist event, the swept workload is the recovery mount itself, and
the oracle is unchanged — whatever a *second* recovery produces must
still sit between the model states around the outer crash, fsck-clean,
and drain to converged flags.  Recovery that is not idempotent under its
own persist events (orphan release, UC discard, FACT repair, epoch bump,
staging replay) fails here and nowhere else.
"""

import pytest

from repro.failure.injector import count_persist_events
from repro.fuzz.diff import FuzzConfig, differential_scenario, sweep_case
from repro.fuzz.gen import GenConfig, generate_sequence
from tests._seams import overriding
from tests.fuzz.scenarios import nested_scenario

pytestmark = pytest.mark.fuzz

VARIANTS = {"delayed": {}, "hybrid": {"dedup_mode": "hybrid"},
            "staging": {"staging": True}}


def straight_ops(seed: int, nops: int = 24):
    """A sequence with no crash/remount ops of its own: the only power
    failures are the two the scenario injects."""
    gen = GenConfig()
    gen.weights = dict(gen.weights, crash=0, remount=0)
    return generate_sequence(seed, stream=0, nops=nops, cfg=gen)


@pytest.mark.parametrize("variant", list(VARIANTS))
@pytest.mark.parametrize("seed", [0, 1])
def test_recovery_is_idempotent_under_its_own_crashes(seed, variant):
    """~6 outer crash points per case, each in (post, discard) and
    (pre, torn); every persist event of each recovery mount is then torn
    in all four (phase, mode) combos."""
    cfg = FuzzConfig(seed=seed, seq_ops=24, budget=10 ** 6,
                     **VARIANTS[variant])
    outer = differential_scenario(straight_ops(seed), cfg)
    total = count_persist_events(lambda: outer.build(lambda: None))
    points = 0
    for point in range(3, total + 1, max(1, total // 6)):
        for phase, mode in (("post", "discard"), ("pre", "torn")):
            res = sweep_case(
                nested_scenario(outer, cfg, point, phase, mode), cfg)
            assert res.ok, (point, phase, mode,
                            [str(v) for v in res.violations])
            points += res.crash_points
    assert points > 300


def test_torn_inode_record_in_staging_replay():
    """The one violation a 5500-point probe of this scenario found.

    Outer: seed 2, staging on, crash post-persist #143 (discard) with op
    20 (``reflink /f14 -> /f13``) in flight.  The recovery mount's 7th
    persist event is ``StagingLog.replay -> NovaFS._replay_create ->
    itable.write`` re-creating ino 4 in a slot an earlier unlink
    released.  ``release`` clears only the valid byte, so the slot still
    holds the dead file's ``log_head=157``; the torn crash
    (``default_rng(2 + 7)``) persists the new record's valid word and
    zeroed ``log_tail`` but not its zeroed ``log_head``.  The second
    mount sees a valid orphan whose log "starts" at page 157 — by now a
    data page of ino 2 — and ``_collect_orphans`` used to un-mark that
    chain unconditionally: "dangling pointer: referenced page 157 is on
    a free list".  Fixed inside recovery, with no charge moved: the
    usage scan counts one reference per log page and data page alike,
    an orphan takes back only what it added, and both walk the chain
    through the bounded ``LogManager.iter_chain`` (the hand-built unit
    case is ``tests/nova/test_recovery.py::TestStaleLogHead``).
    """
    cfg = overriding(FuzzConfig, modes=("torn",), phases=("pre",))(
        seed=2, seq_ops=24, staging=True, budget=10 ** 6)
    outer = differential_scenario(straight_ops(2), cfg)
    res = sweep_case(nested_scenario(outer, cfg, 143, "post", "discard"),
                     cfg)
    assert res.ok, [str(v) for v in res.violations]
