"""SLO rules and flight recorder.

Declarative service-level objectives, evaluated against an image's
metrics snapshot by ``repro slo``, plus a bounded structured event log
dumped when something goes wrong — so a crash report carries its recent
history.

Rule kinds (``repro.slo/1`` schema)::

    {"schema": "repro.slo/1", "rules": [
      {"name": "write-p99", "kind": "latency",
       "metric": "fs.write", "quantile": 0.99, "max_ns": 5e6},
      {"name": "dwq-bound", "kind": "gauge",
       "metric": "dwq.depth", "max": 64},
      {"name": "stall-burn", "kind": "rate",
       "metric": "conc.stalls_total", "max_per_s": 1000}
    ]}

* ``latency`` — a quantile of a histogram must stay under ``max_ns``.
  ``metric`` may name the histogram directly or a traced op
  (``fs.write`` resolves to ``fs.write_latency_ns``).
* ``gauge`` — a gauge (or counter) value must stay inside
  [``min``, ``max``].
* ``rate`` — a counter must not burn faster than ``max_per_s`` of
  *simulated* time.  One snapshot is one observation, so
  :func:`evaluate_snapshot` reports rate rules as skipped.

The flight ring dumps to a JSON file (``repro.flight/1``) when an
artifact path is configured; invariant trips and fuzz failures attach
the same dump to their reports.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import Optional

from repro.obs.registry import percentiles_from_buckets

__all__ = ["FlightRecorder", "SLORule", "load_rules", "evaluate_snapshot"]


class _NullClock:
    """Fallback when no simulated clock is wired: durations read as 0."""

    __slots__ = ()
    now_ns = 0.0
    charged_fs = 0


_NULL_CLOCK = _NullClock()


class FlightRecorder:
    """Bounded ring of structured events — the system's black box.

    Subsystems call :meth:`record` on notable events (op completions,
    lock acquisitions, DWQ enqueues, persistence points); the
    ring keeps the newest ``capacity`` of them at constant memory.
    :meth:`dump` snapshots the ring into a ``repro.flight/1`` artifact,
    optionally written to :attr:`artifact_path` — triggered on invariant
    trips and fuzz-checker failures.
    """

    #: Events kept (a test subclass keeps fewer).
    capacity = 512

    def __init__(self, clock=None):
        self.clock = clock if clock is not None else _NULL_CLOCK
        self.events: deque[dict] = deque(maxlen=self.capacity)
        self.total = 0
        self.enabled = True
        #: When set, :meth:`dump` also writes the artifact here.
        self.artifact_path: Optional[str] = None
        self.dumps = 0

    def record(self, kind: str, **fields) -> None:
        if not self.enabled:
            return
        self.total += 1
        self.events.append({"t_ns": self.clock.now_ns, "kind": kind,
                            **fields})

    def dump(self, path: Optional[str] = None, reason: str = "") -> dict:
        """Snapshot the ring as a ``repro.flight/1`` artifact dict.

        Writes JSON to ``path`` (or :attr:`artifact_path`) when one is
        configured; always returns the artifact so callers can attach
        it to reports directly.
        """
        doc = {
            "schema": "repro.flight/1",
            "reason": reason,
            "recorded": self.total,
            "dropped": self.total - len(self.events),
            "events": list(self.events),
        }
        self.dumps += 1
        target = path or self.artifact_path
        if target:
            with open(target, "w") as fh:
                json.dump(doc, fh, indent=2)
            doc["path"] = target
        return doc

    def reset(self) -> None:
        self.events.clear()
        self.total = 0
        self.dumps = 0


_KINDS = ("latency", "gauge", "rate")


@dataclass(frozen=True)
class SLORule:
    """One declarative objective over a named metric."""

    name: str
    kind: str                      # "latency" | "gauge" | "rate"
    metric: str
    max: Optional[float] = None    # gauge upper bound / latency max_ns
    min: Optional[float] = None    # gauge lower bound
    quantile: float = 0.99         # latency rules
    max_per_s: Optional[float] = None  # rate rules

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
        elif self.kind == "gauge" and self.max is None and self.min is None:
            raise ValueError(f"rule {self.name!r}: gauge needs min or max")
        elif self.kind == "rate" and self.max_per_s is None:
            raise ValueError(f"rule {self.name!r}: rate needs max_per_s")

    @classmethod
    def from_dict(cls, d: dict) -> "SLORule":
        return cls(name=d["name"], kind=d["kind"], metric=d["metric"],
                   max=d.get("max_ns", d.get("max")), min=d.get("min"),
                   quantile=d.get("quantile", 0.99),
                   max_per_s=d.get("max_per_s"))


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
    rules read gauges/counters; rate rules need two live observations
    and are reported as ``skipped``.
    """
    rules = load_rules(rules)
    alerts: list[dict] = []
    skipped: list[str] = []
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
        elif rule.kind == "gauge":
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
        else:
            skipped.append(rule.name)
    if skipped:
        alerts.append({"rule": None, "kind": "skipped", "rules": skipped,
                       "detail": "a rate rule needs two snapshots and "
                                 "this judges one"})
    return alerts
