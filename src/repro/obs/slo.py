"""SLO rules and flight recorder.

Declarative service-level objectives, evaluated against an image's
metrics snapshot by ``repro slo``, plus the flight recorder: structured
instants noted in the tracer's event ring, and a dump of that ring when
something goes wrong — so a crash report carries its recent history.

Rule kinds (``repro.slo/1`` schema)::

    {"schema": "repro.slo/1", "rules": [
      {"name": "write-p99", "kind": "latency",
       "metric": "fs.write", "quantile": 0.99, "max_ns": 5e6},
      {"name": "dwq-bound", "kind": "gauge",
       "metric": "dwq.depth", "max": 64}
    ]}

* ``latency`` — a quantile of a histogram must stay under ``max_ns``.
  ``metric`` may name the histogram directly or a traced op
  (``fs.write`` resolves to ``fs.write_latency_ns``).
* ``gauge`` — a gauge (or counter) value must stay inside
  [``min``, ``max``].

Any other kind is refused when the rules load.

The ring dumps to a JSON file (``repro.flight/2``) when an artifact
path is configured; invariant trips and fuzz failures attach the same
dump to their reports.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import islice
from typing import Optional

from repro.obs.registry import percentiles_from_buckets

__all__ = ["FlightRecorder", "SLORule", "load_rules", "evaluate_snapshot"]


#: Ring events a dump renders, newest last.
DUMP_EVENTS = 512


class FlightRecorder:
    """The system's black box: a view of the tracer's event ring.

    Subsystems :meth:`record` notable moments (lock acquisitions, DWQ
    enqueues, persistence points, hybrid mode changes, invariant trips)
    as instants beside the spans.  :meth:`dump` renders the ring —
    triggered on invariant trips and fuzz-checker failures.
    """

    def __init__(self, tracer):
        self._tracer = tracer
        #: When set, :meth:`dump` also writes the artifact here.
        self.artifact_path: Optional[str] = None

    def record(self, kind: str, **fields) -> None:
        self._tracer.instant(kind, fields)

    def dump(self, path: Optional[str] = None, reason: str = "") -> dict:
        """The newest :data:`DUMP_EVENTS` ring events as a
        ``repro.flight/2`` artifact dict, also written to ``path`` (or
        :attr:`artifact_path`) when one is set: a span is an ``op``
        stamped with its start, an instant keeps its kind and fields."""
        t = self._tracer
        events = [
            {"t_ns": ev.start_ns, "kind": "op", "name": ev.name,
             "trace_id": ev.trace_id, "track": ev.track,
             "dur_ns": ev.duration_ns} if ev.span_id else
            {"t_ns": ev.start_ns, "kind": ev.name, **dict(ev.attrs)}
            for ev in islice(t.events, max(0, len(t.events) - DUMP_EVENTS),
                             None)]
        recorded = t.total_spans + t.instants
        doc = {"schema": "repro.flight/2", "reason": reason,
               "recorded": recorded, "dropped": recorded - len(events),
               "events": events}
        target = path or self.artifact_path
        if target:
            with open(target, "w") as fh:
                json.dump(doc, fh, indent=2)
            doc["path"] = target
        return doc


_KINDS = ("latency", "gauge")


@dataclass(frozen=True)
class SLORule:
    """One declarative objective over a named metric."""

    name: str
    kind: str                      # "latency" | "gauge"
    metric: str
    max: Optional[float] = None    # gauge upper bound / latency max_ns
    min: Optional[float] = None    # gauge lower bound
    quantile: float = 0.99         # latency rules

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"rule {self.name!r}: unknown kind "
                             f"{self.kind!r} (expected one of {_KINDS})")
        if self.kind == "latency":
            if self.max is None:
                raise ValueError(f"rule {self.name!r}: latency needs max_ns")
            if not 0.0 < self.quantile <= 1.0:
                raise ValueError(f"rule {self.name!r}: quantile "
                                 f"{self.quantile} outside (0, 1]")
        elif self.max is None and self.min is None:
            raise ValueError(f"rule {self.name!r}: gauge needs min or max")

    @classmethod
    def from_dict(cls, d: dict) -> "SLORule":
        return cls(name=d["name"], kind=d["kind"], metric=d["metric"],
                   max=d.get("max_ns", d.get("max")), min=d.get("min"),
                   quantile=d.get("quantile", 0.99))


def load_rules(source) -> list[SLORule]:
    """Parse rules from a dict, a JSON string, or a file path."""
    if isinstance(source, str):
        if source.lstrip().startswith("{"):
            doc = json.loads(source)
        else:
            with open(source) as fh:
                doc = json.load(fh)
    else:
        doc = source
    if isinstance(doc, dict):
        rules = doc.get("rules", [])
    else:
        rules = doc
    return [r if isinstance(r, SLORule) else SLORule.from_dict(r)
            for r in rules]


def _resolve_latency_metric(metric: str, names) -> Optional[str]:
    if metric in names:
        return metric
    alias = f"{metric}_latency_ns"
    return alias if alias in names else None


def evaluate_snapshot(rules, snapshot: dict) -> list[dict]:
    """One-shot rule evaluation against a ``repro.metrics/1`` snapshot.

    Used by ``repro slo`` on an image's persisted metrics history.
    Latency rules read the snapshot's interpolated percentiles; gauge
    rules read gauges/counters.
    """
    rules = load_rules(rules)
    alerts: list[dict] = []
    hists = snapshot.get("histograms", {})
    gauges = snapshot.get("gauges", {})
    counters = snapshot.get("counters", {})
    for rule in rules:
        if rule.kind == "latency":
            name = _resolve_latency_metric(rule.metric, hists)
            h = hists.get(name) if name else None
            if not h or not h.get("count"):
                continue
            qkey = {0.5: "p50", 0.95: "p95", 0.99: "p99"}.get(rule.quantile)
            if qkey is None:
                bounds = [b for b, _ in h["buckets"]]
                counts = [c for _, c in h["buckets"]]
                value = percentiles_from_buckets(
                    bounds, counts, h["count"], h["min"], h["max"],
                    (rule.quantile,))[0]
            else:
                value = h[qkey]
            if value > rule.max:
                alerts.append({"rule": rule.name, "kind": rule.kind,
                               "metric": name, "value": value,
                               "bound": rule.max,
                               "quantile": rule.quantile})
        else:
            if rule.metric in gauges:
                value = gauges[rule.metric]
            elif rule.metric in counters:
                value = counters[rule.metric]
            else:
                continue
            if rule.max is not None and value > rule.max:
                alerts.append({"rule": rule.name, "kind": rule.kind,
                               "metric": rule.metric, "value": value,
                               "bound": rule.max})
            elif rule.min is not None and value < rule.min:
                alerts.append({"rule": rule.name, "kind": rule.kind,
                               "metric": rule.metric, "value": value,
                               "bound": rule.min, "below": True})
    return alerts
