"""Span nesting, durations on the simulated clock, ring eviction."""

from repro.obs import ObsHub, Tracer
from repro.pm.clock import FS_PER_NS, SimClock
from tests._seams import overriding


class TestSpans:
    def test_duration_is_charged_time(self):
        clock = SimClock()
        hub = ObsHub(clock=clock)
        with hub.span("fs.write"):
            clock.advance(500)
        ev = hub.tracer.events[-1]
        assert ev.name == "fs.write"
        assert ev.duration_ns == 500

    def test_duration_counts_captured_charges(self):
        # In DES capture mode charges bypass now_ns entirely; span
        # durations must still see them.
        clock = SimClock()
        hub = ObsHub(clock=clock)
        with clock.capture():
            with hub.span("fs.write"):
                clock.advance(800)
        assert clock.now_ns == 0  # capture absorbed the charge...
        assert hub.tracer.events[-1].duration_ns == 800  # ...span saw it

    def test_sync_to_does_not_inflate_duration(self):
        clock = SimClock()
        hub = ObsHub(clock=clock)
        with hub.span("fs.read"):
            clock.advance(100)
            # DES moved time to 1 ms; no work done
            clock.sync_to(1_000_000 * FS_PER_NS)
        assert hub.tracer.events[-1].duration_ns == 100

    def test_nesting_parent_ids(self):
        hub = ObsHub(clock=SimClock())
        with hub.span("recovery.mount") as outer:
            with hub.span("recovery.log_replay") as mid:
                with hub.span("fs.write"):
                    pass
            with hub.span("recovery.free_list"):
                pass
        by_name = {e.name: e for e in hub.tracer.events}
        assert by_name["recovery.mount"].parent_id is None
        assert (by_name["recovery.log_replay"].parent_id
                == outer.span_id)
        assert by_name["fs.write"].parent_id == mid.span_id
        assert by_name["recovery.free_list"].parent_id == outer.span_id

    def test_span_attrs_recorded_sorted(self):
        hub = ObsHub(clock=SimClock())
        with hub.span("fs.write", pages=3, ino=7):
            pass
        assert hub.tracer.events[-1].attrs == (("ino", 7), ("pages", 3))

    def test_span_feeds_latency_histogram(self):
        clock = SimClock()
        hub = ObsHub(clock=clock)
        for ns in (100, 200, 300):
            with hub.span("fs.write"):
                clock.advance(ns)
        h = hub.registry.get("fs.write_latency_ns")
        assert h.count == 3
        assert h.sum == 600

    def test_exception_still_closes_span(self):
        clock = SimClock()
        hub = ObsHub(clock=clock)
        try:
            with hub.span("fs.write"):
                clock.advance(50)
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert hub.tracer.events[-1].duration_ns == 50
        assert hub.tracer._stack == []


class TestRingBuffer:
    def test_eviction_keeps_newest(self):
        tracer = Tracer(clock=SimClock(), capacity=4)
        for i in range(10):
            with tracer.span(f"op.n{i}"):
                pass
        assert len(tracer.events) == 4
        assert tracer.total_spans == 10
        assert tracer.evicted == 6
        assert [e.name for e in tracer.events] == [
            "op.n6", "op.n7", "op.n8", "op.n9"]

    def test_reset(self):
        tracer = Tracer(clock=SimClock(), capacity=4)
        with tracer.span("a.b"):
            pass
        tracer.reset()
        assert len(tracer.events) == 0 and tracer.total_spans == 0

    def test_hub_snapshot_includes_trace_counts(self):
        hub = overriding(ObsHub, trace_capacity=2)(clock=SimClock())
        for _ in range(5):
            with hub.span("fs.write"):
                pass
        snap = hub.snapshot()
        assert snap["trace"] == {"spans_recorded": 5, "spans_evicted": 3}
