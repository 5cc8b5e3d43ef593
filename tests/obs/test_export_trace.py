"""Chrome trace-event export and collapsed-stack folding."""

import json

from repro.obs import (ObsHub, Tracer, compute_self_ns, span_paths,
                       to_chrome_trace, to_folded)
from repro.pm.clock import SimClock


def _sample_hub():
    clock = SimClock()
    hub = ObsHub(clock=clock)
    with hub.span("fs.write", ino=3):
        clock.advance(1000)
        with hub.span("dedup.fingerprint"):
            clock.advance(400)
    with hub.tracer.use_track("worker-0"):
        with hub.span("dedup.process_node"):
            clock.advance(200)
    return hub


class TestSelfTime:
    def test_self_is_duration_minus_children(self):
        hub = _sample_hub()
        evs = list(hub.tracer.events)
        self_ns = compute_self_ns(evs)
        by_name = {e.name: e for e in evs}
        assert self_ns[by_name["fs.write"].span_id] == 1000
        assert self_ns[by_name["dedup.fingerprint"].span_id] == 400
        assert self_ns[by_name["dedup.process_node"].span_id] == 200

    def test_self_clamped_nonnegative(self):
        # An emit()ed child can overlap its parent's wall window without
        # being charged to it; never report negative self time.
        tracer = Tracer(clock=SimClock())
        tracer.emit("a.parent", 0.0, 100.0)
        parent = tracer.events[-1]
        tracer.emit("a.child", 0.0, 300.0, parent_id=parent.span_id)
        self_ns = compute_self_ns(list(tracer.events))
        assert self_ns[parent.span_id] == 0

    def test_paths_with_evicted_parent_become_roots(self):
        # b.mid's parent span was evicted from the ring: b.mid is
        # treated as a root and its subtree keeps the correct suffix.
        tracer = Tracer(clock=SimClock())
        mid = tracer.emit("b.mid", 0.0, 10.0, parent_id=999_999)
        tracer.emit("c.inner", 0.0, 5.0, parent_id=mid.span_id)
        evs = list(tracer.events)
        paths = span_paths(evs)
        by_name = {e.name: e for e in evs}
        assert paths[by_name["b.mid"].span_id] == ("b.mid",)
        assert paths[by_name["c.inner"].span_id] == ("b.mid", "c.inner")


class TestChromeTrace:
    def test_document_shape_and_serializable(self):
        doc = to_chrome_trace(list(_sample_hub().tracer.events))
        assert doc["displayTimeUnit"] == "ns"
        json.loads(json.dumps(doc))  # round-trips

    def test_metadata_names_one_thread_per_track(self):
        doc = to_chrome_trace(list(_sample_hub().tracer.events))
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        thread_names = {e["args"]["name"]: e["tid"] for e in meta
                        if e["name"] == "thread_name"}
        assert set(thread_names) == {"main", "worker-0"}
        assert len(set(thread_names.values())) == 2
        assert any(e["name"] == "process_name" for e in meta)

    def test_complete_events_carry_causality_args(self):
        evs = list(_sample_hub().tracer.events)
        doc = to_chrome_trace(evs)
        xs = {e["name"]: e for e in doc["traceEvents"] if e["ph"] == "X"}
        assert set(xs) == {"fs.write", "dedup.fingerprint",
                           "dedup.process_node"}
        by_name = {e.name: e for e in evs}
        w = xs["fs.write"]
        assert w["args"]["trace_id"] == by_name["fs.write"].trace_id
        assert w["args"]["ino"] == 3
        assert w["cat"] == "fs"
        assert w["ts"] == by_name["fs.write"].start_ns / 1e3
        assert w["dur"] == by_name["fs.write"].duration_ns / 1e3
        fp = xs["dedup.fingerprint"]
        assert fp["args"]["parent_id"] == by_name["fs.write"].span_id
        assert fp["args"]["trace_id"] == w["args"]["trace_id"]

    def test_events_in_same_track_share_tid(self):
        doc = to_chrome_trace(list(_sample_hub().tracer.events))
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        tids = {e["name"]: e["tid"] for e in xs}
        assert tids["fs.write"] == tids["dedup.fingerprint"]
        assert tids["dedup.process_node"] != tids["fs.write"]

    def test_instants_are_instant_events_on_their_track(self):
        """A flight-recorder instant renders as ``ph: "i"`` on the lane of
        the track it was noted on, with its span and trace; the folded
        stacks and the profile skip it."""
        clock = SimClock()
        hub = ObsHub(clock=clock)
        with hub.tracer.use_track("worker-0"):
            with hub.span("dedup.process_node"):
                clock.advance(300)
                hub.flight.record("lock", name="fact", wait_ns=5.0)
        hub.flight.record("persist", what="checkpoint", pages=1)
        doc = to_chrome_trace(hub.tracer.events)
        lanes = {e["args"]["name"]: e["tid"] for e in doc["traceEvents"]
                 if e["name"] == "thread_name"}
        node = next(e for e in doc["traceEvents"] if e["ph"] == "X")
        lock, persist = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert (lock["name"], lock["tid"], lock["ts"]) == \
            ("lock", lanes["worker-0"], 0.3)
        assert lock["args"]["parent_id"] == node["args"]["span_id"]
        assert lock["args"]["trace_id"] == node["args"]["trace_id"]
        assert lock["args"]["name"] == "fact"
        assert lock["args"]["wait_ns"] == 5.0
        assert (persist["tid"], persist["args"]["parent_id"]) == \
            (lanes["main"], None)
        assert to_folded(hub.tracer.events) == "dedup.process_node 300\n"

    def test_chrome_trace_json_is_parseable(self):
        text = json.dumps(to_chrome_trace(list(_sample_hub().tracer.events)))
        doc = json.loads(text)
        assert "traceEvents" in doc

    def test_empty_ring(self):
        doc = to_chrome_trace([])
        assert [e for e in doc["traceEvents"] if e["ph"] == "X"] == []
        json.dumps(doc)


class TestFolded:
    def test_folded_lines_are_self_time(self):
        hub = _sample_hub()
        text = to_folded(list(hub.tracer.events))
        lines = dict(ln.rsplit(" ", 1) for ln in text.strip().splitlines())
        assert lines["fs.write"] == "1000"
        assert lines["fs.write;dedup.fingerprint"] == "400"
        assert lines["dedup.process_node"] == "200"

    def test_folded_aggregates_repeated_paths(self):
        clock = SimClock()
        hub = ObsHub(clock=clock)
        for _ in range(3):
            with hub.span("fs.write"):
                clock.advance(10)
        text = to_folded(list(hub.tracer.events))
        assert text == "fs.write 30\n"

    def test_folded_empty(self):
        assert to_folded([]) == ""
