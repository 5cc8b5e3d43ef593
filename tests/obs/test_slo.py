"""Flight recorder ring, SLO rules, snapshot evaluation."""

import json

import pytest

from repro.obs import ObsHub, SLORule, evaluate_snapshot, load_rules
from repro.pm.clock import SimClock
from tests._seams import overriding


class TestFlightRecorder:
    """The recorder is a view of the tracer's one ring: ``record`` appends
    an instant to it, ``dump`` renders its newest events."""

    def test_ring_keeps_newest(self):
        hub = overriding(ObsHub, trace_capacity=3)(clock=SimClock())
        for i in range(5):
            hub.flight.record("persist", n=i)
        assert [dict(e.attrs)["n"] for e in hub.tracer.events] == [2, 3, 4]
        assert [e["n"] for e in hub.flight.dump()["events"]] == [2, 3, 4]

    def test_events_stamped_with_sim_time(self):
        clock = SimClock()
        hub = ObsHub(clock=clock)
        clock.advance(250)
        hub.flight.record("persist", what="checkpoint")
        ev = hub.flight.dump()["events"][-1]
        assert ev == {"t_ns": 250, "kind": "persist", "what": "checkpoint"}

    def test_disabled_records_nothing(self):
        """No switch turns the recorder off, and it stores nothing of its
        own: an idle hub dumps nothing, a record is one ring event."""
        hub = ObsHub(clock=SimClock())
        assert not hasattr(hub.flight, "enabled")
        assert hub.flight.dump()["events"] == []
        hub.flight.record("lock", name="ns")
        assert len(hub.tracer.events) == 1
        assert vars(hub.flight).keys() == {"_tracer", "artifact_path"}

    def test_dump_schema_and_dropped_count(self):
        hub = overriding(ObsHub, trace_capacity=2)(clock=SimClock())
        for i in range(5):
            hub.flight.record("persist", n=i)
        doc = hub.flight.dump(reason="test")
        assert doc["schema"] == "repro.flight/2"
        assert doc["reason"] == "test"
        assert doc["recorded"] == 5 and doc["dropped"] == 3
        assert [e["n"] for e in doc["events"]] == [3, 4]
        assert "path" not in doc

    def test_dump_renders_the_newest_512(self):
        hub = ObsHub(clock=SimClock())
        for i in range(600):
            hub.flight.record("persist", n=i)
        doc = hub.flight.dump()
        assert len(hub.tracer.events) == 600
        assert [e["n"] for e in doc["events"]] == list(range(88, 600))
        assert doc["recorded"] == 600 and doc["dropped"] == 88

    def test_dump_writes_artifact_path(self, tmp_path):
        fr = ObsHub(clock=SimClock()).flight
        fr.artifact_path = str(tmp_path / "img.flight.json")
        fr.record("alert", rule="r1")
        doc = fr.dump(reason="slo:r1")
        assert doc["path"] == fr.artifact_path
        on_disk = json.loads((tmp_path / "img.flight.json").read_text())
        assert on_disk["reason"] == "slo:r1"
        assert on_disk["events"][0]["rule"] == "r1"

    def test_explicit_path_overrides_artifact_path(self, tmp_path):
        fr = ObsHub(clock=SimClock()).flight
        fr.artifact_path = str(tmp_path / "a.json")
        fr.record("persist")
        doc = fr.dump(path=str(tmp_path / "b.json"))
        assert doc["path"].endswith("b.json")
        assert not (tmp_path / "a.json").exists()

    def test_reset(self):
        """The hub's reset clears the one ring the recorder dumps."""
        hub = ObsHub(clock=SimClock())
        with hub.span("fs.write"):
            hub.flight.record("persist")
        hub.flight.dump()
        hub.reset()
        doc = hub.flight.dump()
        assert doc["recorded"] == 0 and doc["events"] == []


class TestSLORule:
    def test_latency_requires_max(self):
        with pytest.raises(ValueError, match="max_ns"):
            SLORule(name="r", kind="latency", metric="fs.write")

    def test_latency_quantile_range(self):
        with pytest.raises(ValueError, match="quantile"):
            SLORule(name="r", kind="latency", metric="fs.write",
                    max=1.0, quantile=1.5)

    def test_gauge_requires_a_bound(self):
        with pytest.raises(ValueError, match="min or max"):
            SLORule(name="r", kind="gauge", metric="dwq.depth")

    def test_rate_requires_max_per_s(self):
        """No kind judges a rate: a snapshot is one observation."""
        with pytest.raises(ValueError, match="unknown kind 'rate'"):
            SLORule.from_dict({"name": "r", "kind": "rate",
                               "metric": "x_total", "max_per_s": 1})

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown kind"):
            SLORule(name="r", kind="slo", metric="x")

    def test_from_dict_accepts_max_ns_alias(self):
        r = SLORule.from_dict({"name": "p99", "kind": "latency",
                               "metric": "fs.write", "max_ns": 5e6})
        assert r.max == 5e6 and r.quantile == 0.99


class TestLoadRules:
    DOC = {"schema": "repro.slo/1", "rules": [
        {"name": "wp99", "kind": "latency", "metric": "fs.write",
         "max_ns": 5e6},
        {"name": "depth", "kind": "gauge", "metric": "dwq.depth", "max": 64},
    ]}

    def test_from_dict(self):
        rules = load_rules(self.DOC)
        assert [r.name for r in rules] == ["wp99", "depth"]

    def test_from_json_string(self):
        rules = load_rules(json.dumps(self.DOC))
        assert len(rules) == 2

    def test_from_file(self, tmp_path):
        p = tmp_path / "slo.json"
        p.write_text(json.dumps(self.DOC))
        assert [r.kind for r in load_rules(str(p))] == ["latency", "gauge"]

    def test_from_list_and_passthrough(self):
        r = SLORule(name="x", kind="gauge", metric="g", max=1)
        rules = load_rules([r, {"name": "y", "kind": "gauge",
                                "metric": "g", "min": 0}])
        assert rules[0] is r and rules[1].name == "y"


class TestEvaluateSnapshot:
    def _snapshot(self):
        clock = SimClock()
        hub = ObsHub(clock=clock)
        for ns in (100, 200, 50_000):
            with hub.span("fs.write"):
                clock.advance(ns)
        hub.registry.gauge("dwq.depth").set(12)
        hub.registry.counter("fs.writes_total").inc(3)
        return hub.snapshot()

    def test_latency_violation_from_percentiles(self):
        alerts = evaluate_snapshot(
            [{"name": "wp99", "kind": "latency", "metric": "fs.write",
              "max_ns": 1000}], self._snapshot())
        assert len(alerts) == 1
        assert alerts[0]["rule"] == "wp99"
        assert alerts[0]["value"] > 1000

    def test_latency_custom_quantile_interpolates(self):
        alerts = evaluate_snapshot(
            [{"name": "wp10", "kind": "latency", "metric": "fs.write",
              "quantile": 0.10, "max_ns": 1}], self._snapshot())
        assert len(alerts) == 1 and alerts[0]["quantile"] == 0.10

    def test_gauge_reads_gauges_then_counters(self):
        snap = self._snapshot()
        alerts = evaluate_snapshot(
            [{"name": "depth", "kind": "gauge", "metric": "dwq.depth",
              "max": 10},
             {"name": "writes", "kind": "gauge",
              "metric": "fs.writes_total", "min": 5}], snap)
        assert {a["rule"] for a in alerts} == {"depth", "writes"}

    def test_ok_rules_produce_no_alerts(self):
        alerts = evaluate_snapshot(
            [{"name": "depth", "kind": "gauge", "metric": "dwq.depth",
              "max": 100}], self._snapshot())
        assert alerts == []

    def test_rate_rules_reported_skipped(self):
        """A rate rule is refused, not skipped: no kind judges a rate."""
        with pytest.raises(ValueError, match="unknown kind 'rate'"):
            evaluate_snapshot(
                [{"name": "burn", "kind": "rate",
                  "metric": "fs.writes_total", "max_per_s": 1}],
                self._snapshot())

    def test_missing_metric_ignored(self):
        alerts = evaluate_snapshot(
            [{"name": "ghost", "kind": "gauge", "metric": "no.such",
              "max": 1}], self._snapshot())
        assert alerts == []
