"""The recovery-replay pool model: list scheduling equals a DES pool."""

import random
from collections import deque

import pytest

from repro.nova.recovery import run_sharded, simulate_workers
from repro.pm.clock import FS_PER_NS, fs_of
from repro.sim import Engine
from tests.pm.test_clock import clock_at


def engine_pool(costs, workers):
    """The reference: ``workers`` simulated threads pulling from one
    shared FIFO queue in order, each sleeping its task's cost."""
    pending = deque(costs)
    if not pending:
        return {"makespan": 0, "busy": 0}
    eng = Engine()

    def worker():
        while pending:
            yield eng.timeout_fs(pending.popleft())

    for _ in range(min(workers, len(pending))):
        eng.process(worker())
    eng.run()
    return {"makespan": eng.now_fs, "busy": sum(costs)}


def test_list_scheduling_equals_the_engine_pool():
    """3 000 random integer cost lists, ties and zero costs included."""
    rng = random.Random(25)
    for _ in range(3000):
        span = rng.choice((1, 3, 10, 10**6, 10**12))
        costs = [rng.randrange(span) for _ in range(rng.randrange(40))]
        workers = rng.randrange(1, 9)
        assert simulate_workers(costs, workers) \
            == engine_pool(costs, workers), (costs, workers)


def test_one_worker_is_the_serial_sum():
    costs = [fs_of(ns) for ns in (0.1, 0.2, 1 / 3, 250.0)]
    assert simulate_workers(costs, 1) == {"makespan": sum(costs),
                                          "busy": sum(costs)}
    assert simulate_workers([], 4) == {"makespan": 0, "busy": 0}
    with pytest.raises(ValueError):
        simulate_workers(costs, 0)


def test_run_sharded_moves_the_clock_by_the_makespan():
    clock = clock_at(5.0)
    charges = [100.0, 1 / 3, 40.0, 60.0]
    tasks = [lambda ns=ns: clock.advance(ns) for ns in charges]
    pool = run_sharded(clock, tasks, workers=2)
    fs = [fs_of(ns) for ns in charges]
    makespan = simulate_workers(fs, 2)["makespan"]
    assert clock.now_fs == fs_of(5.0) + makespan
    assert clock.charged_fs == sum(fs)
    assert pool == {"tasks": 4, "busy_ns": sum(fs) / FS_PER_NS,
                    "makespan_ns": makespan / FS_PER_NS, "workers": 2}
