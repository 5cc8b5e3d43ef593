"""Unit tests for the simulated clock."""

import random

import pytest

from repro.pm import SimClock
from repro.pm import clock as clock_module
from repro.pm.latency import PROFILES


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
    clk = SimClock(start_ns=10.0)
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
    clk.sync_to(500.0)
    assert clk.now_ns == 500.0
    with pytest.raises(ValueError):
        clk.sync_to(100.0)


def test_capturing_flag():
    clk = SimClock()
    assert not clk.capturing
    with clk.capture():
        assert clk.capturing
    assert not clk.capturing


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
        assert clk.capturing
        clk.advance(1.0)
        with pytest.raises(KeyError):
            with clk.capture() as second:
                clk.advance(0.5)
                raise KeyError("body")
    assert (inner.total_ns, second.total_ns, outer.total_ns) == (5.0, 0.5, 3.0)
    assert not clk.capturing and clk.now_ns == 0.0
    assert clk.charged_ns == 8.5
    clk.advance(4.0)
    assert clk.now_ns == 4.0


class _ListClock:
    """What ``advance`` did before it charged the capture in place: the
    innermost capture is told, through a call, to add the charge."""

    class Capture:
        def __init__(self):
            self.total_ns = 0.0

        def add(self, ns):
            self.total_ns += ns

    def __init__(self):
        self.now_ns = self.charged_ns = 0.0
        self.stack = []

    def advance(self, ns):
        self.charged_ns += ns
        if self.stack:
            self.stack[-1].add(ns)
        else:
            self.now_ns += ns


def test_charges_match_the_call_through_capture_exactly():
    """Floats: the sums must be the same additions in the same order, so
    equal to the last bit — nested three deep, over a seeded sequence."""
    rng = random.Random(22)
    clk, ref = SimClock(), _ListClock()
    contexts, totals = [], []
    for _ in range(4000):
        roll = rng.random()
        if roll < 0.08 and len(contexts) < 3:
            ctx = clk.capture()
            contexts.append((ctx, ctx.__enter__()))
            ref.stack.append(ref.Capture())
        elif roll < 0.16 and contexts:
            ctx, cap = contexts.pop()
            ctx.__exit__(None, None, None)
            totals.append((cap.total_ns, ref.stack.pop().total_ns))
        else:
            ns = rng.choice((0.0, 2.25, 170.0, rng.random() * 1e4, 1e-3))
            clk.advance(ns)
            ref.advance(ns)
        assert (clk.now_ns, clk.charged_ns) == (ref.now_ns, ref.charged_ns)
        assert [cap.total_ns for _c, cap in contexts] \
            == [cap.total_ns for cap in ref.stack]
    assert len(totals) > 100 and all(a == b for a, b in totals)
    assert any(a > 0 for a, _b in totals)


# -- advance_n: by contract n calls of advance(ns) ---------------------------

_RUN_LENGTHS = sorted({0, 1, 2, 3, 23, 24, 25, 64, 192, 512, 4096,
                       clock_module._ACCUMULATE_FROM - 1,
                       clock_module._ACCUMULATE_FROM,
                       clock_module._ACCUMULATE_FROM + 1})
_CHARGES = sorted({model.clwb_ns for model in PROFILES.values()}
                  | {model.read_cost(1) for model in PROFILES.values()}
                  | {0.0, 1e-3, 0.1, 2.25, 1 / 3, 170.0})


def test_advance_n_is_n_advances_to_the_last_bit():
    """The fold kernels against the loop they stand for: every length
    around the cut-over and the sizes the device charges (2 lines of an
    inode record, a 64-line data page, 192 inode slots, mkfs's 4 096-line
    zero-fill), every profile's ``clwb_ns`` and 1-byte read, from random
    starts, inside and outside captures nested three deep.  ``sum()``
    would pass on 3.11 and fail here on 3.12, where it compensates."""
    rng = random.Random(23)
    steps = folded = numpy_folds = captured_folds = 0
    totals = []
    while steps < 10_000:
        start = rng.choice((0.0, rng.random() * 1e3, rng.random() * 1e12))
        clk, ref = SimClock(start), SimClock(start)
        contexts = []
        for _ in range(500):
            steps += 1
            roll = rng.random()
            if roll < 0.08 and len(contexts) < 3:
                pair = clk.capture(), ref.capture()
                contexts.append((pair, [ctx.__enter__() for ctx in pair]))
            elif roll < 0.16 and contexts:
                pair, caps = contexts.pop()
                for ctx in pair:
                    ctx.__exit__(None, None, None)
                totals.append(tuple(cap.total_ns for cap in caps))
            elif roll < 0.30:
                ns = rng.choice(_CHARGES)
                clk.advance(ns)
                ref.advance(ns)
            else:
                ns = rng.choice((rng.choice(_CHARGES), rng.random() * 1e4))
                n = rng.choice((rng.choice(_RUN_LENGTHS),
                                rng.randrange(70), rng.randrange(700)))
                clk.advance_n(ns, n)
                for _ in range(n):
                    ref.advance(ns)
                folded += n
                numpy_folds += n >= clock_module._ACCUMULATE_FROM
                captured_folds += bool(contexts)
            assert (clk.now_ns, clk.charged_ns) \
                == (ref.now_ns, ref.charged_ns), (steps, ns, n)
            for _pair, (cap, ref_cap) in contexts:
                assert cap.total_ns == ref_cap.total_ns, (steps, ns, n)
    assert all(a == b for a, b in totals) and len(totals) > 300
    # Both kernels and both targets were exercised, many times each.
    assert folded > 500_000
    assert numpy_folds > 1_500 and captured_folds > 1_500


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
    """The e2e tracer counts simulated time by patching the class."""
    seen = []
    plain_advance = SimClock.advance

    def counted(clock, ns):
        plain_advance(clock, ns)
        seen.append(ns)

    clk, ref = SimClock(5.0), SimClock(5.0)
    with monkeypatch.context() as patch:
        patch.setattr(SimClock, "advance", counted)
        clk.advance_n(0.1, 300)
    assert seen == [0.1] * 300
    clk.advance_n(0.1, 300)         # restored: folded again, nobody told
    assert len(seen) == 300
    for _ in range(600):
        ref.advance(0.1)
    assert (clk.now_ns, clk.charged_ns) == (ref.now_ns, ref.charged_ns)
    assert clk.now_ns != 5.0 + 0.1 * 600    # n * ns is not n adds


@pytest.mark.parametrize("n", [0, 1, 30, 5000])
def test_advance_n_refuses_a_negative_charge(n):
    clk = SimClock(7.0)
    with pytest.raises(ValueError, match="negative time charge"):
        clk.advance_n(-1.0, n)
    assert (clk.now_ns, clk.charged_ns) == (7.0, 0.0)
