"""Every lock acquisition reaches the flight recorder, workers' too.

``ConcurrentVFS._take`` is the one place a lock is taken: it checks the
lock-order DAG, waits, observes ``conc.lock_wait_ns`` and records a
``lock`` flight event.  The dedup worker's per-node inode lock goes
through it too, so worker waits sit on the same timeline as the
foreground ops'.
"""

import pytest

from repro.core import Config, Variant, make_fs
from repro.workloads import run_workload, small_file_job

pytestmark = pytest.mark.conc


def test_worker_inode_locks_are_on_the_flight_ring():
    fs, dd = make_fs(Variant.DELAYED,
                     Config(device_pages=2048, max_inodes=64,
                            delayed_interval_ms=0.05, delayed_batch=64))
    run_workload(fs, small_file_job(nfiles=8, dup_ratio=0.5, threads=2),
                 dd=dd)
    locks = [e for e in fs.obs.flight.events if e["kind"] == "lock"]
    worker_ino = [e for e in locks if e["holder"].startswith("worker-")
                  and e["name"].startswith("ino:")]
    assert worker_ino, sorted({(e["holder"], e["name"]) for e in locks})
    assert all(e["wait_ns"] >= 0 for e in worker_ino)
