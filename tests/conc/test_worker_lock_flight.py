"""Every lock acquisition reaches the flight recorder, workers' too.

``ConcurrentVFS._take`` is the one place a lock is taken: it checks the
lock-order DAG, waits, observes ``conc.lock_wait_ns`` and records a
``lock`` instant in the tracer's ring.  The dedup worker's per-node
inode lock goes through it too, so worker waits sit on the same
timeline as the foreground ops': each instant carries the track, trace
and open span of the operation it was recorded in.
"""

import pytest

from repro.core import Config, Variant, make_fs
from repro.workloads import run_workload, small_file_job

pytestmark = pytest.mark.conc


@pytest.fixture(scope="module")
def ran():
    fs, dd = make_fs(Variant.DELAYED,
                     Config(device_pages=2048, max_inodes=64,
                            delayed_interval_ms=0.05, delayed_batch=64))
    run_workload(fs, small_file_job(nfiles=8, dup_ratio=0.5, threads=2),
                 dd=dd)
    return fs


def test_worker_inode_locks_are_on_the_flight_ring(ran):
    doc = ran.obs.flight.dump()
    assert doc["dropped"] == 0
    locks = [e for e in doc["events"] if e["kind"] == "lock"]
    worker_ino = [e for e in locks if e["holder"].startswith("worker-")
                  and e["name"].startswith("ino:")]
    assert worker_ino, sorted({(e["holder"], e["name"]) for e in locks})
    assert all(e["wait_ns"] >= 0 for e in worker_ino)


def test_instants_carry_the_operation_they_were_recorded_in(ran):
    """A write's ``dwq.enqueue`` lies inside the write's span; a worker's
    node locks lie in the trace of the write that queued the node, on
    the worker's lane.  A worker holds no open span across engine
    yields, so its instants have no parent, as its emitted
    ``dedup.process_node`` span has none."""
    ring = list(ran.obs.tracer.events)
    spans = {ev.span_id: ev for ev in ring if ev.span_id}
    instants = [ev for ev in ring if not ev.span_id]

    enqueues = [ev for ev in instants if ev.name == "dwq.enqueue"]
    assert len(enqueues) == 8
    for ev in enqueues:
        write = spans[ev.parent_id]
        assert write.name == "fs.write"
        assert (ev.trace_id, ev.track) == (write.trace_id, write.track)
        assert ev.track.startswith("writer-")
        assert dict(ev.attrs)["trace_id"] == ev.trace_id

    drains = {dict(ev.attrs)["ino"]: ev for ev in spans.values()
              if ev.name == "dedup.process_node"}
    node_locks = [ev for ev in instants if ev.name == "lock"
                  and ev.track.startswith("worker-")
                  and not dict(ev.attrs)["name"].startswith("shard:")]
    assert node_locks
    for ev in node_locks:
        name = dict(ev.attrs)["name"]
        if name.startswith("ino:"):
            drain = drains[int(name[4:])]
            assert (ev.trace_id, ev.track, ev.parent_id) == \
                (drain.trace_id, drain.track, drain.parent_id)
        assert ev.trace_id in {d.trace_id for d in drains.values()}
        assert ev.track == dict(ev.attrs)["holder"]
