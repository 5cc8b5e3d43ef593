"""Unit tests for the simulated clock: an exact integer of femtoseconds."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.pm import SimClock
from repro.pm.clock import FS_PER_NS, fs_of
from repro.pm.latency import PROFILES


def clock_at(ns: float) -> SimClock:
    """A clock that reads ``ns`` and has charged nothing."""
    clk = SimClock()
    clk.now_fs = fs_of(ns)
    return clk


def test_advance_moves_now():
    clk = SimClock()
    clk.advance(100.0)
    clk.advance(50.0)
    assert clk.now_ns == 150.0


def test_negative_advance_rejected():
    clk = SimClock()
    with pytest.raises(ValueError):
        clk.advance(-1.0)


def test_capture_absorbs_charges_without_moving_now():
    clk = clock_at(10.0)
    with clk.capture() as cap:
        clk.advance(5.0)
        clk.advance(7.0)
    assert cap.total_ns == 12.0
    assert clk.now_ns == 10.0
    clk.advance(1.0)
    assert clk.now_ns == 11.0


def test_nested_captures_charge_innermost_only():
    clk = SimClock()
    with clk.capture() as outer:
        clk.advance(3.0)
        with clk.capture() as inner:
            clk.advance(8.0)
        clk.advance(1.0)
    assert inner.total_ns == 8.0
    assert outer.total_ns == 4.0
    assert clk.now_ns == 0.0


def test_sync_to_moves_forward_only():
    clk = SimClock()
    clk.sync_to(500 * FS_PER_NS)
    assert clk.now_ns == 500.0
    clk.sync_to(clk.now_fs)             # standing still is fine
    with pytest.raises(ValueError):
        clk.sync_to(clk.now_fs - 1)     # one femtosecond back is not


def test_capturing_flag():
    clk = SimClock()
    assert not bool(clk._captures)
    with clk.capture():
        assert bool(clk._captures)
    assert not bool(clk._captures)


def test_capture_outlives_an_exception():
    """A charge that raises, or a body that does, still pops its capture:
    what was charged before stays with it, later charges go outside."""
    clk = SimClock()
    with clk.capture() as outer:
        clk.advance(2.0)
        with pytest.raises(ValueError):
            with clk.capture() as inner:
                clk.advance(5.0)
                clk.advance(-1.0)
        assert bool(clk._captures)
        clk.advance(1.0)
        with pytest.raises(KeyError):
            with clk.capture() as second:
                clk.advance(0.5)
                raise KeyError("body")
    assert (inner.total_ns, second.total_ns, outer.total_ns) == (5.0, 0.5, 3.0)
    assert not bool(clk._captures) and clk.now_ns == 0.0
    assert clk.charged_ns == 8.5
    clk.advance(4.0)
    assert clk.now_ns == 4.0


def test_charges_match_the_call_through_capture_exactly():
    """Nested three deep over a seeded sequence: every charge lands, as
    its rounded femtoseconds, in the innermost capture (or ``now``), and
    ``charged`` is the exact sum of all of them."""
    rng = random.Random(22)
    clk = SimClock()
    contexts, own, totals = [], [], []
    now = charged = 0
    for _ in range(4000):
        roll = rng.random()
        if roll < 0.08 and len(contexts) < 3:
            ctx = clk.capture()
            contexts.append((ctx, ctx.__enter__()))
            own.append(0)
        elif roll < 0.16 and contexts:
            ctx, cap = contexts.pop()
            ctx.__exit__(None, None, None)
            totals.append((cap.fs, own.pop()))
        else:
            ns = rng.choice((0.0, 2.25, 170.0, rng.random() * 1e4, 1e-3))
            clk.advance(ns)
            charged += fs_of(ns)
            if own:
                own[-1] += fs_of(ns)
            else:
                now += fs_of(ns)
        assert (clk.now_fs, clk.charged_fs) == (now, charged)
        assert [cap.fs for _c, cap in contexts] == own
    assert len(totals) > 100 and all(a == b for a, b in totals)
    assert any(a > 0 for a, _b in totals)
    assert (clk.now_ns, clk.charged_ns) \
        == (now / FS_PER_NS, charged / FS_PER_NS)


# -- advance_n: by contract n calls of advance(ns) ---------------------------

_CHARGES = sorted({model.clwb_ns for model in PROFILES.values()}
                  | {model.read_cost(1) for model in PROFILES.values()}
                  | {0.0, 1e-3, 0.1, 2.25, 1 / 3, 170.0})


def test_advance_n_is_n_advances_to_the_last_bit():
    """Every length the device charges (2 lines of an inode record, a
    64-line data page, 192 inode slots, mkfs's 4 096-line zero-fill),
    every profile's ``clwb_ns`` and 1-byte read, from random starts,
    inside and outside captures nested three deep."""
    rng = random.Random(23)
    steps = 0
    totals = []
    while steps < 3000:
        start = rng.choice((0.0, rng.random() * 1e3, rng.random() * 1e12))
        clk, ref = clock_at(start), clock_at(start)
        contexts = []
        for _ in range(300):
            steps += 1
            roll = rng.random()
            if roll < 0.08 and len(contexts) < 3:
                pair = clk.capture(), ref.capture()
                contexts.append((pair, [ctx.__enter__() for ctx in pair]))
            elif roll < 0.16 and contexts:
                pair, caps = contexts.pop()
                for ctx in pair:
                    ctx.__exit__(None, None, None)
                totals.append(tuple(cap.fs for cap in caps))
            else:
                ns = rng.choice((rng.choice(_CHARGES), rng.random() * 1e4))
                n = rng.choice((0, 1, 2, 64, 192, 4096, rng.randrange(700)))
                clk.advance_n(ns, n)
                for _ in range(n):
                    ref.advance(ns)
            assert (clk.now_fs, clk.charged_fs) \
                == (ref.now_fs, ref.charged_fs), (steps, ns, n)
            for _pair, (cap, ref_cap) in contexts:
                assert cap.fs == ref_cap.fs, (steps, ns, n)
    assert all(a == b for a, b in totals) and len(totals) > 50


class _CountingClock(SimClock):
    """Whoever replaces ``advance`` is handed every charge."""

    __slots__ = ("charges",)

    def __init__(self):
        super().__init__()
        self.charges = []

    def advance(self, ns):
        self.charges.append(ns)
        super().advance(ns)


@pytest.mark.parametrize("n", [0, 1, 2, 64, 4096])
def test_a_clock_with_its_own_advance_gets_n_calls(n):
    clk, plain = _CountingClock(), SimClock()
    with clk.capture() as cap, plain.capture() as plain_cap:
        clk.advance_n(62.5, n)
        plain.advance_n(62.5, n)
    assert clk.charges == [62.5] * n
    assert (cap.total_ns, clk.charged_ns) \
        == (plain_cap.total_ns, plain.charged_ns)


def test_a_patched_advance_gets_n_calls_and_the_fold_returns(monkeypatch):
    """The e2e tracer counts simulated time by patching the class; once
    it is gone, ``advance_n`` is one multiplication again."""
    seen = []
    plain_advance = SimClock.advance

    def counted(clock, ns):
        plain_advance(clock, ns)
        seen.append(ns)

    clk, ref = clock_at(5.0), clock_at(5.0)
    with monkeypatch.context() as patch:
        patch.setattr(SimClock, "advance", counted)
        clk.advance_n(0.1, 300)
    assert seen == [0.1] * 300
    clk.advance_n(0.1, 300)         # restored: multiplied, nobody told
    assert len(seen) == 300
    for _ in range(600):
        ref.advance(0.1)
    assert (clk.now_fs, clk.charged_fs) == (ref.now_fs, ref.charged_fs)
    assert clk.now_fs == fs_of(5.0) + 600 * fs_of(0.1)


@pytest.mark.parametrize("n", [0, 1, 30, 5000])
def test_advance_n_refuses_a_negative_charge(n):
    clk = clock_at(7.0)
    with pytest.raises(ValueError, match="negative time charge"):
        clk.advance_n(-1.0, n)
    assert (clk.now_ns, clk.charged_ns) == (7.0, 0.0)


@pytest.mark.parametrize("clock", [SimClock, _CountingClock])
@pytest.mark.parametrize("n", [-1, -3, -4096])
def test_advance_n_refuses_a_negative_count(clock, n):
    """A negative count would move a clock that folds backwards, and do
    nothing on one that does not: both refuse it, charging nothing."""
    clk = clock()
    clk.advance(100.0)
    with pytest.raises(ValueError, match="negative time charge"):
        clk.advance_n(10.0, n)
    assert (clk.now_ns, clk.charged_ns) == (100.0, 100.0)


@pytest.mark.parametrize("bad", [5.5, 1000005.0, "7", None])
def test_sync_to_refuses_anything_but_whole_femtoseconds(bad):
    clk = clock_at(1.0)
    with pytest.raises(TypeError, match="whole femtoseconds"):
        clk.sync_to(bad)
    assert clk.now_fs == FS_PER_NS and type(clk.now_fs) is int
    clk.sync_to(clk.now_fs + 7)
    clk.advance(0.5)
    assert clk.now_fs == FS_PER_NS + 7 + FS_PER_NS // 2
    assert type(clk.now_fs) is int


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
@pytest.mark.parametrize("charge", [
    fs_of,
    lambda ns: SimClock().advance(ns),
    lambda ns: SimClock().advance_n(ns, 3),
    lambda ns: _CountingClock().advance(ns),
], ids=["fs_of", "advance", "advance_n", "replaced advance"])
def test_a_non_finite_charge_is_one_named_error(charge, bad):
    with pytest.raises(ValueError, match=f"non-finite.* time charge: {bad}"):
        charge(bad)


@pytest.mark.parametrize("ns", [0.0, 25.0, 1 / 3, 250.0 + 64 / 6.0, 1e9])
def test_charge_fs_is_advance_with_the_rounding_done_once(ns):
    """On a clock that folds, ``charge_fs(fs_of(ns), ns)`` is
    ``advance(ns)``; one whose ``advance`` was replaced is handed that
    call instead, so a recorder still sees every float charge."""
    clk, ref, counting = clock_at(3.0), clock_at(3.0), _CountingClock()
    assert clk.folds and not counting.folds
    with clk.capture() as cap, ref.capture() as ref_cap:
        clk.charge_fs(fs_of(ns), ns)
        ref.advance(ns)
    clk.charge_fs(fs_of(ns), ns)
    ref.advance(ns)
    assert (cap.fs, clk.now_fs, clk.charged_fs) \
        == (ref_cap.fs, ref.now_fs, ref.charged_fs)
    counting.charge_fs(fs_of(ns), ns)
    assert counting.charges == [ns]
    assert counting.charged_fs == fs_of(ns)


# -- the clock is the exact integer sum of its advance calls -----------------

#: Charges as the device and CPU models compute them: latency constants,
#: ``nbytes / bw`` terms (non-dyadic: 1/3, 1/2.2, 1/0.35 ...), SHA-1 costs.
_charge = st.one_of(
    st.sampled_from(_CHARGES),
    st.builds(lambda m, n: m.read_cost(n),
              st.sampled_from(list(PROFILES.values())),
              st.integers(1, 1 << 17)),
    st.builds(lambda m, n: m.write_cost(n),
              st.sampled_from(list(PROFILES.values())),
              st.integers(1, 1 << 17)),
    st.builds(lambda m, n: m.cpu.sha1_cost(n),
              st.sampled_from(list(PROFILES.values())),
              st.integers(0, 1 << 17)),
    st.floats(0, 1e7, allow_nan=False, allow_infinity=False),
)


def _replay(clk: SimClock, plan, runs) -> None:
    """Charge ``plan`` — a list of charges and nested lists (captures) —
    folding each run of equal adjacent charges into one ``advance_n``
    when ``runs`` is set."""
    i = 0
    while i < len(plan):
        item = plan[i]
        if isinstance(item, list):
            with clk.capture():
                _replay(clk, item, runs)
            i += 1
            continue
        j = i + 1
        while runs and j < len(plan) and plan[j] == item:
            j += 1
        clk.advance_n(item, j - i)
        i = j


def _nest(charges, cuts):
    """Split ``charges`` into a flat plan with captures at ``cuts``."""
    plan, pos = [], 0
    for start, length in cuts:
        start = max(start, pos)
        if start >= len(charges):
            break
        plan.extend(charges[pos:start])
        inner = charges[start:start + length]
        plan.append([inner[0], inner[1:]] if len(inner) > 1 else inner)
        pos = start + length
    plan.extend(charges[pos:])
    return plan


@settings(max_examples=200, deadline=None)
@given(charges=st.lists(st.tuples(_charge, st.integers(1, 6)), max_size=40),
       data=st.data())
def test_any_order_and_grouping_gives_the_same_clock(charges, data):
    """For any charge list, any permutation of it and any split into
    nested captures and ``advance_n`` runs charge the identical integer
    — exactly the sum of the charges' rounded femtoseconds."""
    flat = [ns for ns, times in charges for _ in range(times)]
    exact = sum(fs_of(ns) for ns in flat)
    reference = SimClock()
    for ns in flat:
        reference.advance(ns)
    assert reference.charged_fs == reference.now_fs == exact
    assert type(reference.charged_fs) is int

    shuffled = data.draw(st.permutations(flat))
    cuts = data.draw(st.lists(st.tuples(st.integers(0, len(flat)),
                                        st.integers(1, 8)), max_size=5))
    for order in (flat, shuffled):
        for runs in (False, True):
            clk = SimClock()
            _replay(clk, _nest(order, cuts), runs)
            assert clk.charged_fs == exact
            with clk.capture() as cap:
                _replay(clk, order, runs)
            assert cap.fs == exact and clk.charged_fs == 2 * exact
    # What a capture held never reached ``now``; the rest did.
    plan = _nest(shuffled, cuts)
    grouped = SimClock()
    _replay(grouped, plan, True)
    assert grouped.now_fs == sum(fs_of(ns) for ns in plan
                                 if not isinstance(ns, list))
