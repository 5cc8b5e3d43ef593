"""Fairness regression tests for the DES synchronisation primitives.

The concurrency subsystem (repro.conc) leans on three guarantees:

* :class:`Lock` grants strictly in arrival order (FIFO, no barging);
* :class:`Resource` never starves an early requester behind a stream of
  later arrivals;
* :class:`RWLock` is phase-fair — a writer queued behind readers runs
  after at most one read phase, no matter how many new readers keep
  arriving.
"""

from repro.sim import Engine, Lock, Resource, RWLock


class TestLockFifo:
    def test_grant_order_is_arrival_order(self):
        eng = Engine()
        lock = Lock(eng)
        order = []

        def holder(tag, hold_ns):
            yield lock.acquire()
            order.append(tag)
            yield eng.timeout(hold_ns)
            lock.release()

        for i in range(6):
            eng.process(holder(i, 10))
        eng.run()
        assert order == list(range(6))

    def test_no_barging_during_penalty_handoff(self):
        """An acquire arriving mid-hand-off must queue, not steal."""
        eng = Engine()
        lock = Lock(eng, contention_penalty_ns=100.0)
        order = []

        def holder(tag):
            yield lock.acquire()
            order.append(tag)
            yield eng.timeout(5)
            lock.release()

        def late_barger():
            # Arrives while the 0 -> 1 hand-off delay is in flight.
            yield eng.timeout(7)
            yield lock.acquire()
            order.append("barger")
            lock.release()

        eng.process(holder(0))
        eng.process(holder(1))
        eng.process(late_barger())
        eng.run()
        assert order == [0, 1, "barger"]


class TestResourceStarvation:
    def test_early_waiter_not_starved_by_arrival_stream(self):
        """A queued requester must run even while new requests pour in."""
        eng = Engine()
        res = Resource(eng, capacity=2)
        done = []

        def hog(tag):
            yield res.request()
            yield eng.timeout(50)
            res.release()
            done.append(tag)

        def victim():
            yield eng.timeout(1)
            yield res.request()
            done.append("victim")
            res.release()

        def stream(i):
            # Arrives strictly after the victim queued.
            yield eng.timeout(2 + i)
            yield res.request()
            yield eng.timeout(50)
            res.release()

        eng.process(hog("a"))
        eng.process(hog("b"))
        eng.process(victim())
        for i in range(10):
            eng.process(stream(i))
        eng.run(until=120)
        # The victim queued first, so it gets the first freed slot —
        # ahead of every streamer despite their constant pressure.
        assert "victim" in done
        assert done.index("victim") <= 2


class TestRWLockFairness:
    def test_readers_share(self):
        eng = Engine()
        rw = RWLock(eng)
        concurrently = []

        def reader(tag):
            yield rw.acquire_read()
            concurrently.append(rw._readers)
            yield eng.timeout(10)
            rw.release_read()

        for i in range(4):
            eng.process(reader(i))
        eng.run()
        assert max(concurrently) == 4

    def test_writer_behind_reader_stream_eventually_runs(self):
        """The satellite regression: a writer queued behind readers must
        run after the current read phase even when new readers keep
        arriving forever."""
        eng = Engine()
        rw = RWLock(eng)
        timeline = []

        def reader(start, tag):
            yield eng.timeout(start)
            yield rw.acquire_read()
            timeline.append(("r", tag, eng.now))
            yield eng.timeout(20)
            rw.release_read()

        def writer():
            yield eng.timeout(5)
            yield rw.acquire_write()
            timeline.append(("w", "writer", eng.now))
            yield eng.timeout(5)
            rw.release_write()

        # Initial read phase, then an unbounded stream of readers that
        # would starve a barging-tolerant lock.
        eng.process(reader(0, 0))
        eng.process(writer())
        for i in range(12):
            eng.process(reader(6 + 3 * i, 100 + i))
        eng.run()
        kinds = [(k, t) for k, _tag, t in timeline]
        w_time = next(t for k, t in kinds if k == "w")
        # Writer ran right after the first read phase (reader 0 released
        # at t=20), before the stream readers got in.
        assert w_time == 20.0
        later_readers = [t for k, t in kinds if k == "r" and t > 0]
        assert all(t >= w_time for t in later_readers)

    def test_fifo_between_writers(self):
        eng = Engine()
        rw = RWLock(eng)
        order = []

        def writer(tag):
            yield rw.acquire_write()
            order.append(tag)
            yield eng.timeout(10)
            rw.release_write()

        for i in range(5):
            eng.process(writer(i))
        eng.run()
        assert order == list(range(5))

    def test_read_batch_granted_together(self):
        """After a writer, the whole leading run of queued readers is
        admitted as one phase."""
        eng = Engine()
        rw = RWLock(eng)
        grant_times = {}

        def writer():
            yield rw.acquire_write()
            yield eng.timeout(10)
            rw.release_write()

        def reader(tag):
            yield eng.timeout(1)
            yield rw.acquire_read()
            grant_times[tag] = eng.now
            yield eng.timeout(5)
            rw.release_read()

        eng.process(writer())
        for i in range(3):
            eng.process(reader(i))
        eng.run()
        assert len(set(grant_times.values())) == 1

    def test_release_validation(self):
        import pytest

        eng = Engine()
        rw = RWLock(eng)
        with pytest.raises(RuntimeError):
            rw.release_read()
        with pytest.raises(RuntimeError):
            rw.release_write()
        with pytest.raises(ValueError):
            rw.acquire("x")
