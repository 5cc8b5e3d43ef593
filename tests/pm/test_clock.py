"""Unit tests for the simulated clock."""

import pytest

from repro.pm import SimClock


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
    import random

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

