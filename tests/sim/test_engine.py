"""Unit tests for the DES kernel."""

import pytest

from repro.pm.clock import FS_PER_NS, fs_of
from repro.sim import Engine, Lock, Resource


def test_timeout_advances_clock():
    eng = Engine()
    fired = []

    def proc():
        yield eng.timeout(10.0)
        fired.append(eng.now)
        yield eng.timeout(5.0)
        fired.append(eng.now)

    eng.process(proc())
    eng.run()
    assert fired == [10.0, 15.0]
    assert eng.now == 15.0


def test_negative_timeout_rejected():
    eng = Engine()
    with pytest.raises(ValueError):
        eng.timeout(-1.0)


def test_same_time_events_fire_in_creation_order():
    eng = Engine()
    order = []

    def proc(tag):
        yield eng.timeout(5.0)
        order.append(tag)

    for tag in ("a", "b", "c"):
        eng.process(proc(tag))
    eng.run()
    assert order == ["a", "b", "c"]


def test_run_until_stops_early():
    eng = Engine()
    seen = []

    def proc():
        for _ in range(10):
            yield eng.timeout(1.0)
            seen.append(eng.now)

    eng.process(proc())
    eng.run(until=3.5)
    assert seen == [1.0, 2.0, 3.0]
    assert eng.now == 3.5
    eng.run()  # resumes from where it stopped
    assert seen[-1] == 10.0


def test_run_until_beyond_last_event_sets_now():
    eng = Engine()

    def empty():
        return
        yield  # pragma: no cover - makes this a generator

    eng.process(empty())
    eng.run(until=100.0)
    assert eng.now == 100.0


def test_process_join_returns_value():
    eng = Engine()
    results = []

    def worker():
        yield eng.timeout(3.0)
        return 42

    def parent():
        value = yield eng.process(worker())
        results.append((eng.now, value))

    eng.process(parent())
    eng.run()
    assert results == [(3.0, 42)]


def test_yield_non_event_raises_typeerror():
    eng = Engine()

    def bad():
        yield 5

    eng.process(bad())
    with pytest.raises(TypeError):
        eng.run()


def test_manual_event_wakes_waiter_with_value():
    eng = Engine()
    ev = eng.event("signal")
    got = []

    def waiter():
        value = yield ev
        got.append((eng.now, value))

    def signaller():
        yield eng.timeout(7.0)
        ev.succeed("hello")

    eng.process(waiter())
    eng.process(signaller())
    eng.run()
    assert got == [(7.0, "hello")]


def test_event_double_trigger_rejected():
    eng = Engine()
    ev = eng.event()
    ev.succeed(1)
    with pytest.raises(RuntimeError):
        ev.succeed(2)


def test_all_of_waits_for_every_event():
    eng = Engine()
    done = []

    def worker(dt, tag):
        yield eng.timeout(dt)
        return tag

    def parent():
        procs = [eng.process(worker(dt, tag))
                 for dt, tag in ((5, "a"), (2, "b"), (9, "c"))]
        values = yield eng.all_of(procs)
        done.append((eng.now, values))

    eng.process(parent())
    eng.run()
    assert done == [(9.0, ["a", "b", "c"])]


def test_all_of_empty_fires_immediately():
    eng = Engine()
    got = []

    def parent():
        values = yield eng.all_of([])
        got.append(values)

    eng.process(parent())
    eng.run()
    assert got == [[]]


class TestLock:
    def test_mutual_exclusion(self):
        eng = Engine()
        lock = Lock(eng)
        inside = [0]
        max_inside = [0]

        def critical(tag):
            yield lock.acquire()
            inside[0] += 1
            max_inside[0] = max(max_inside[0], inside[0])
            yield eng.timeout(10.0)
            inside[0] -= 1
            lock.release()

        for t in range(4):
            eng.process(critical(t))
        eng.run()
        assert max_inside[0] == 1
        assert eng.now == 40.0  # fully serialized

    def test_fifo_ordering(self):
        eng = Engine()
        lock = Lock(eng)
        order = []

        def critical(tag):
            yield lock.acquire()
            order.append(tag)
            yield eng.timeout(1.0)
            lock.release()

        for t in range(5):
            eng.process(critical(t))
        eng.run()
        assert order == [0, 1, 2, 3, 4]

    def test_release_unheld_raises(self):
        eng = Engine()
        with pytest.raises(RuntimeError):
            Lock(eng).release()

    def test_contention_penalty_slows_handoff(self):
        eng = Engine()
        lock = Lock(eng, contention_penalty_ns=100.0)
        times = []

        def critical():
            yield lock.acquire()
            yield eng.timeout(10.0)
            lock.release()
            times.append(eng.now)

        for _ in range(3):
            eng.process(critical())
        eng.run()
        # Hand-off 1 has 1 remaining waiter -> 200 ns penalty; hand-off 2
        # has none remaining -> 100 ns.
        assert times == [10.0, 220.0, 330.0]
        assert lock.contended_acquisitions == 2


class TestResource:
    def test_capacity_limits_concurrency(self):
        eng = Engine()
        res = Resource(eng, capacity=2)
        active = [0]
        peak = [0]

        def user():
            yield res.request()
            active[0] += 1
            peak[0] = max(peak[0], active[0])
            yield eng.timeout(10.0)
            active[0] -= 1
            res.release()

        for _ in range(6):
            eng.process(user())
        eng.run()
        assert peak[0] == 2
        assert eng.now == 30.0  # 6 users / 2 slots * 10

    def test_release_idle_raises(self):
        eng = Engine()
        with pytest.raises(RuntimeError):
            Resource(eng, capacity=1).release()

    def test_bad_capacity(self):
        eng = Engine()
        with pytest.raises(ValueError):
            Resource(eng, capacity=0)


def test_determinism_full_replay():
    """Two identical simulations produce identical traces."""

    def build():
        eng = Engine()
        lock = Lock(eng)
        items, idle = [], []
        trace = []

        def producer():
            for i in range(10):
                yield eng.timeout(3.0)
                items.append(i)
                if idle:
                    idle.pop(0).succeed()

        def consumer(tag):
            while True:
                while not items:
                    wake = eng.event()
                    idle.append(wake)
                    yield wake
                item = items.pop(0)
                yield lock.acquire()
                yield eng.timeout(2.0)
                trace.append((eng.now, tag, item))
                lock.release()
                if item == 9:
                    break

        eng.process(producer())
        for tag in range(3):
            eng.process(consumer(tag))
        eng.run(until=200.0)
        return trace

    assert build() == build()


def test_time_is_integer_femtoseconds():
    eng = Engine()
    ev = eng.timeout(0.1)
    eng.run()
    assert ev.triggered and eng.now_fs == fs_of(0.1) == FS_PER_NS // 10
    eng.timeout_fs(7)
    assert eng.run() == (FS_PER_NS // 10 + 7) / FS_PER_NS
    with pytest.raises(ValueError):
        eng.timeout_fs(-1)


def test_equal_fs_events_fire_in_seq_order():
    """0.7 + 0.1 and 0.8 are different floats (the sum is the smaller)
    but the same femtosecond: the event scheduled first fires first."""
    eng = Engine()
    order = []

    def direct():
        yield eng.timeout(0.8)
        order.append(("direct", eng.now_fs))

    def in_two_steps():
        yield eng.timeout(0.7)
        yield eng.timeout(0.1)
        order.append(("two steps", eng.now_fs))

    eng.process(direct())
    eng.process(in_two_steps())
    eng.run()
    assert 0.7 + 0.1 < 0.8
    assert order == [("direct", fs_of(0.8)), ("two steps", fs_of(0.8))]
