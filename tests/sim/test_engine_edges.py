"""Edge-case tests for the DES kernel beyond the basic suite."""

import pytest

from repro.sim import Engine, Lock, Resource


class TestEventEdges:
    def test_callback_after_dispatch_runs_immediately(self):
        eng = Engine()
        ev = eng.event()
        ev.succeed("v")
        eng.run()
        got = []
        ev.add_callback(lambda e: got.append(e.value))
        assert got == ["v"]

    def test_run_not_reentrant(self):
        eng = Engine()

        def proc():
            with pytest.raises(RuntimeError, match="reentrant"):
                eng.run()
            yield eng.timeout(1)

        eng.process(proc())
        eng.run()

    def test_process_return_value_via_value(self):
        eng = Engine()

        def worker():
            yield eng.timeout(1)
            return {"answer": 42}

        p = eng.process(worker())
        eng.run()
        assert p.triggered
        assert p.value == {"answer": 42}
        assert p.triggered


class TestResourceEdges:
    def test_release_hands_slot_to_waiter_without_count_change(self):
        eng = Engine()
        res = Resource(eng, capacity=1)
        order = []

        def user(tag, hold):
            yield res.request()
            order.append(("in", tag, res.in_use))
            yield eng.timeout(hold)
            res.release()

        eng.process(user("a", 5))
        eng.process(user("b", 5))
        eng.run()
        assert order == [("in", "a", 1), ("in", "b", 1)]
        assert res.total_requests == 2
        assert res.queued_requests == 1
        assert res.in_use == 0

    def test_stats_without_contention(self):
        eng = Engine()
        res = Resource(eng, capacity=4)

        def user():
            yield res.request()
            yield eng.timeout(1)
            res.release()

        for _ in range(3):
            eng.process(user())
        eng.run()
        assert res.queued_requests == 0


class TestLockEdges:
    def test_lock_queue_length(self):
        eng = Engine()
        lock = Lock(eng)
        lengths = []

        def holder():
            yield lock.acquire()
            yield eng.timeout(10)
            lengths.append(len(lock._waiters))
            lock.release()

        def waiter():
            yield lock.acquire()
            lock.release()

        eng.process(holder())
        eng.process(waiter())
        eng.process(waiter())
        eng.run()
        assert lengths == [2]
        assert lock._holder is None

    def test_acquisition_counters(self):
        eng = Engine()
        lock = Lock(eng)

        def quick():
            yield lock.acquire()
            lock.release()

        for _ in range(5):
            eng.process(quick())
        eng.run()
        assert lock.acquisitions == 5
        # All five boot at t=0: the first wins, four queue behind it.
        assert lock.contended_acquisitions == 4
