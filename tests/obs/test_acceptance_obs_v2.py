"""ISSUE 6 acceptance criteria, asserted end to end.

1. A fig9-style concurrent run (multiple writer clients, sharded DWQ,
   dedup worker pool, delayed daemon) exports a Perfetto-loadable
   Chrome trace in which ``dedup.process_node`` spans carry the
   ``trace_id`` of the client write that enqueued the node — causality
   across the queue handoff.
2. The flight recorder's ring holds the enqueues that push the DWQ past
   a depth bound, each with its causal id.
"""

import json

import pytest

from repro.core import Config, Variant, make_fs
from repro.obs import to_chrome_trace, to_folded
from repro.workloads import run_workload, small_file_job

pytestmark = pytest.mark.conc


def _fig9_run():
    fs, dd = make_fs(Variant.DELAYED,
                     Config(device_pages=2048, max_inodes=128, cpus=4,
                            delayed_interval_ms=0.75, delayed_batch=20000))
    res = run_workload(
        fs, small_file_job(nfiles=24, dup_ratio=0.5, threads=4),
        dd=dd, workers=2)
    return fs, res


class TestCausalTraceAcceptance:
    def test_process_node_carries_originating_write_trace_id(self):
        fs, res = _fig9_run()
        assert res.files_done == 24
        events = list(fs.obs.tracer.events)
        writes = [e for e in events if e.name == "fs.write"
                  and e.track.startswith("writer-")]
        drains = [e for e in events if e.name == "dedup.process_node"]
        assert len(writes) == 24 and len(drains) == 24
        write_tids = {e.trace_id for e in writes}
        assert 0 not in write_tids
        for d in drains:
            assert d.trace_id in write_tids, \
                f"drain on {d.track} not linked to any client write"
        # Worker drains really ran on worker tracks, not the writers'.
        assert {d.track for d in drains} <= {"worker-0", "worker-1"}

    def test_chrome_export_is_perfetto_loadable(self):
        fs, _ = _fig9_run()
        events = list(fs.obs.tracer.events)
        doc = json.loads(json.dumps(to_chrome_trace(events)))
        assert doc["displayTimeUnit"] == "ns"
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert xs and meta
        # Every complete event is well-formed and lands on a named lane.
        lanes = {e["tid"]: e["args"]["name"] for e in meta
                 if e["name"] == "thread_name"}
        for e in xs:
            assert {"name", "cat", "ph", "ts", "dur", "pid", "tid",
                    "args"} <= set(e)
            assert e["dur"] >= 0 and e["tid"] in lanes
        names = {lanes[e["tid"]] for e in xs}
        assert any(n.startswith("writer-") for n in names)
        assert any(n.startswith("worker-") for n in names)
        assert any(n.startswith("shard:") for n in names)
        # The causal link survives export: a process_node X event's
        # trace_id matches some client write X event's trace_id.
        write_tids = {e["args"]["trace_id"] for e in xs
                      if e["name"] == "fs.write"
                      and lanes[e["tid"]].startswith("writer-")}
        drain_tids = {e["args"]["trace_id"] for e in xs
                      if e["name"] == "dedup.process_node"}
        assert drain_tids and drain_tids <= write_tids

    def test_folded_export_nonempty(self):
        fs, _ = _fig9_run()
        text = to_folded(list(fs.obs.tracer.events))
        assert any(ln.startswith("fs.write") for ln in text.splitlines())


class TestSLOViolationAcceptance:
    def test_flight_dump_trails_with_violating_enqueues(self):
        """The flight ring holds the enqueues that pushed the DWQ past a
        depth of 4, each with the causal id of the write that issued it
        — the history a dump of the ring carries."""
        fs, res = _fig9_run()
        doc = fs.obs.flight.dump()
        enq = [e for e in doc["events"] if e["kind"] == "dwq.enqueue"]
        assert enq, "no enqueue events in the ring"
        assert any(e["depth"] > 4 for e in enq), \
            "no enqueue recorded a depth beyond the bound"
        # Enqueues carry the causal id of the write that issued them.
        assert all("trace_id" in e and e["trace_id"] != 0 for e in enq)
