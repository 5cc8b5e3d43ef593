"""Flight recorder ring, SLO rules, snapshot evaluation."""

import json

import pytest

from repro.obs import (FlightRecorder, ObsHub, SLORule, evaluate_snapshot,
                       load_rules)
from repro.pm.clock import SimClock
from tests._seams import overriding


class TestFlightRecorder:
    def test_ring_keeps_newest(self):
        fr = overriding(FlightRecorder, capacity=3)()
        for i in range(5):
            fr.record("op", n=i)
        assert fr.total == 5
        assert [e["n"] for e in fr.events] == [2, 3, 4]

    def test_events_stamped_with_sim_time(self):
        clock = SimClock()
        fr = FlightRecorder(clock=clock)
        clock.advance(250)
        fr.record("persist", what="checkpoint")
        assert fr.events[-1]["t_ns"] == 250
        assert fr.events[-1]["kind"] == "persist"

    def test_disabled_records_nothing(self):
        fr = FlightRecorder()
        fr.enabled = False
        fr.record("op")
        assert fr.total == 0 and len(fr.events) == 0

    def test_dump_schema_and_dropped_count(self):
        fr = overriding(FlightRecorder, capacity=2)()
        for i in range(5):
            fr.record("op", n=i)
        doc = fr.dump(reason="test")
        assert doc["schema"] == "repro.flight/1"
        assert doc["reason"] == "test"
        assert doc["recorded"] == 5 and doc["dropped"] == 3
        assert [e["n"] for e in doc["events"]] == [3, 4]
        assert "path" not in doc

    def test_dump_writes_artifact_path(self, tmp_path):
        fr = FlightRecorder()
        fr.artifact_path = str(tmp_path / "img.flight.json")
        fr.record("alert", rule="r1")
        doc = fr.dump(reason="slo:r1")
        assert doc["path"] == fr.artifact_path
        on_disk = json.loads((tmp_path / "img.flight.json").read_text())
        assert on_disk["reason"] == "slo:r1"
        assert on_disk["events"][0]["rule"] == "r1"
        assert fr.dumps == 1

    def test_explicit_path_overrides_artifact_path(self, tmp_path):
        fr = FlightRecorder()
        fr.artifact_path = str(tmp_path / "a.json")
        fr.record("op")
        doc = fr.dump(path=str(tmp_path / "b.json"))
        assert doc["path"].endswith("b.json")
        assert not (tmp_path / "a.json").exists()

    def test_reset(self):
        fr = FlightRecorder()
        fr.record("op")
        fr.dump()
        fr.reset()
        assert fr.total == 0 and fr.dumps == 0 and len(fr.events) == 0


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
