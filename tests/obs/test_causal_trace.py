"""Causal trace ids, tracks, externally-timed spans, bucket guards."""

import pytest

from repro.obs import FlightRecorder, ObsHub, Tracer
from repro.pm.clock import SimClock


class TestTraceIds:
    def test_root_span_allocates_fresh_trace(self):
        hub = ObsHub(clock=SimClock())
        with hub.span("fs.write"):
            pass
        with hub.span("fs.write"):
            pass
        a, b = list(hub.tracer.events)
        assert a.trace_id != 0 and b.trace_id != 0
        assert a.trace_id != b.trace_id

    def test_children_inherit_roots_trace(self):
        hub = ObsHub(clock=SimClock())
        with hub.span("recovery.mount"):
            with hub.span("recovery.log_replay"):
                with hub.span("fs.write"):
                    pass
            with hub.span("recovery.free_list"):
                pass
        tids = {e.trace_id for e in hub.tracer.events}
        assert len(tids) == 1 and 0 not in tids

    def test_use_trace_adopts_id_for_root_spans(self):
        hub = ObsHub(clock=SimClock())
        with hub.span("fs.write"):
            pass
        origin = hub.tracer.events[-1].trace_id
        with hub.tracer.use_trace(origin):
            with hub.span("dedup.process_node"):
                pass
        assert hub.tracer.events[-1].trace_id == origin

    def test_use_trace_zero_starts_fresh(self):
        # A restored DWQ node has no recorded provenance; its drain must
        # not be attributed to some other live trace.
        hub = ObsHub(clock=SimClock())
        with hub.span("fs.write"):
            pass
        origin = hub.tracer.events[-1].trace_id
        with hub.tracer.use_trace(0):
            with hub.span("dedup.process_node"):
                pass
        got = hub.tracer.events[-1].trace_id
        assert got != origin and got != 0

    def test_current_trace_id_inside_open_span(self):
        # What a DWQ producer reads while the write span is still open.
        hub = ObsHub(clock=SimClock())
        assert hub.tracer.current_trace_id == 0
        with hub.span("fs.write"):
            inner = hub.tracer.current_trace_id
            assert inner != 0
        assert hub.tracer.events[-1].trace_id == inner
        assert hub.tracer.current_trace_id == 0

    def test_nested_use_trace_innermost_wins(self):
        hub = ObsHub(clock=SimClock())
        with hub.tracer.use_trace(7):
            with hub.tracer.use_trace(9):
                with hub.span("a.b"):
                    pass
            with hub.span("c.d"):
                pass
        evs = list(hub.tracer.events)
        assert evs[0].trace_id == 9
        assert evs[1].trace_id == 7

    def test_nested_use_trace_zero_starts_fresh_inside_an_outer_id(self):
        # A restored DWQ node drained under a destage's trace: the empty
        # inner context decides, and the outer id returns after it.
        hub = ObsHub(clock=SimClock())
        tracer = hub.tracer
        with tracer.use_trace(5):
            with tracer.use_trace(0):
                assert tracer.current_trace_id == 0
                with hub.span("dedup.process_node"):
                    pass
                tracer.instant("dwq.enqueue", {})
            with hub.span("fs.write"):
                pass
        inner, instant, outer = list(tracer.events)
        assert inner.trace_id not in (0, 5)
        assert instant.trace_id == 0
        assert outer.trace_id == 5


class TestTracks:
    def test_default_track_is_main(self):
        hub = ObsHub(clock=SimClock())
        with hub.span("fs.write"):
            pass
        assert hub.tracer.events[-1].track == "main"

    def test_use_track_attributes_spans(self):
        hub = ObsHub(clock=SimClock())
        with hub.tracer.use_track("writer-3"):
            with hub.span("fs.write"):
                pass
        assert hub.tracer.events[-1].track == "writer-3"
        with hub.span("fs.read"):
            pass
        assert hub.tracer.events[-1].track == "main"

    def test_nested_tracks(self):
        hub = ObsHub(clock=SimClock())
        with hub.tracer.use_track("recovery"):
            with hub.tracer.use_track("worker-0"):
                with hub.span("a.b"):
                    pass
            with hub.span("c.d"):
                pass
        evs = list(hub.tracer.events)
        assert evs[0].track == "worker-0"
        assert evs[1].track == "recovery"


class TestEmit:
    def test_emit_records_externally_timed_span(self):
        hub = ObsHub(clock=SimClock())
        ev = hub.tracer.emit("dedup.process_node", 1000.0, 250.0,
                             trace_id=42, track="worker-1", ino=7)
        assert ev.start_ns == 1000.0 and ev.duration_ns == 250.0
        assert ev.trace_id == 42 and ev.track == "worker-1"
        assert ev.attrs == (("ino", 7),)
        assert hub.tracer.events[-1] is ev
        assert hub.tracer.total_spans == 1

    def test_emit_span_feeds_auto_histogram(self):
        hub = ObsHub(clock=SimClock())
        hub.emit_span("dedup.process_node", 0.0, 500.0, trace_id=1)
        h = hub.registry.get("dedup.process_node_latency_ns")
        assert h.count == 1 and h.sum == 500.0

    def test_emit_does_not_disturb_open_span_stack(self):
        clock = SimClock()
        hub = ObsHub(clock=clock)
        with hub.span("fs.write"):
            clock.advance(100)
            hub.tracer.emit("dedup.process_node", 0.0, 999.0, trace_id=5)
            clock.advance(100)
        write = [e for e in hub.tracer.events if e.name == "fs.write"][0]
        assert write.duration_ns == 200  # emit absorbed nothing

    def test_emit_without_trace_id_allocates_fresh(self):
        hub = ObsHub(clock=SimClock())
        ev = hub.tracer.emit("a.b", 0.0, 1.0)
        assert ev.trace_id != 0

    def test_span_ids_unique_across_emit_and_spans(self):
        hub = ObsHub(clock=SimClock())
        with hub.span("a.b"):
            pass
        hub.tracer.emit("c.d", 0.0, 1.0)
        with hub.span("e.f"):
            pass
        ids = [e.span_id for e in hub.tracer.events]
        assert len(ids) == len(set(ids))


class TestBucketMismatchGuards:
    """Regression: get-or-create silently keeping the first bucket
    layout left callers believing theirs took effect."""

    def test_hub_span_same_buckets_ok(self):
        hub = ObsHub(clock=SimClock())
        with hub.span("fs.write", buckets=(10, 100)):
            pass
        with hub.span("fs.write", buckets=(100, 10)):  # order-insensitive
            pass
        assert hub.registry.get("fs.write_latency_ns").count == 2

    def test_hub_span_mismatched_buckets_raise(self):
        hub = ObsHub(clock=SimClock())
        with hub.span("fs.write", buckets=(10, 100)):
            pass
        with pytest.raises(ValueError, match="buckets"):
            hub.span("fs.write", buckets=(10, 100, 1000))

    def test_hub_span_no_buckets_reuses_existing(self):
        hub = ObsHub(clock=SimClock())
        with hub.span("fs.write", buckets=(10, 100)):
            pass
        with hub.span("fs.write"):
            pass
        assert hub.registry.get("fs.write_latency_ns").count == 2

    def test_registry_histogram_mismatched_buckets_raise(self):
        from repro.obs import MetricsRegistry
        reg = MetricsRegistry()
        reg.histogram("dwq.residency_ns", buckets=(1, 2, 3))
        with pytest.raises(ValueError, match="buckets"):
            reg.histogram("dwq.residency_ns", buckets=(1, 2, 4))
        # Same layout or omitted buckets still get-or-create.
        assert reg.histogram("dwq.residency_ns", buckets=(3, 2, 1)) \
            is reg.histogram("dwq.residency_ns")


class TestFlightHookup:
    def test_closed_spans_recorded_in_flight_ring(self):
        clock = SimClock()
        hub = ObsHub(clock=clock)
        clock.advance(30)
        with hub.span("fs.write"):
            clock.advance(100)
        ops = [e for e in hub.flight.dump()["events"] if e["kind"] == "op"]
        assert ops and ops[-1]["name"] == "fs.write"
        assert ops[-1]["dur_ns"] == 100
        assert ops[-1]["t_ns"] == 30   # an op is stamped with its start

    def test_reset_clears_flight(self):
        hub = ObsHub(clock=SimClock())
        with hub.span("fs.write"):
            hub.flight.record("lock", name="ns")
        hub.reset()
        doc = hub.flight.dump()
        assert doc["events"] == [] and doc["recorded"] == 0
        assert len(hub.tracer.events) == 0

    def test_a_span_exit_appends_one_ring_event(self, monkeypatch):
        """A closed span is stored once, in the tracer's ring: nothing
        copies it into a second store through the recorder."""
        copies = []
        monkeypatch.setattr(FlightRecorder, "record",
                            lambda self, kind, **fields: copies.append(kind))
        hub = ObsHub(clock=SimClock())
        with hub.span("fs.write"):
            pass
        assert len(hub.tracer.events) == 1
        hub.emit_span("dedup.process_node", 0.0, 5.0)
        assert len(hub.tracer.events) == 2
        assert copies == []
        assert hub.flight.dump()["recorded"] == 2

    def test_tracer_reset_restarts_trace_ids(self):
        tracer = Tracer(clock=SimClock())
        with tracer.span("a.b"):
            pass
        first = tracer.events[-1].trace_id
        tracer.reset()
        assert tracer.current_trace_id == 0
        assert tracer.current_track == "main"
        with tracer.span("a.b"):
            pass
        assert tracer.events[-1].trace_id == first  # numbering restarted
