"""Unified observability: metrics registry, span tracing, exporters.

v2 adds causal traces (``trace_id``/``track`` on every span, Chrome
trace-event and collapsed-stack export), a simulated-time profiler, SLO
rules and a flight recorder.

See ``docs/OBSERVABILITY.md`` for the naming convention and usage.
"""

from .export import (escape_help, escape_label_value, format_table,
                     merge_snapshots, to_prometheus)
from .export_trace import (compute_self_ns, span_paths, to_chrome_trace,
                           to_folded)
from .profile import (PROFILE_SCHEMA, diff_profiles, format_profile,
                      load_profile, merge_profiles, profile_from_events,
                      top_paths)
from .registry import (DEFAULT_LATENCY_BUCKETS_NS, Counter, Gauge,
                       Histogram, MetricsRegistry, percentiles_from_buckets,
                       series_key, split_series)
from .slo import FlightRecorder, SLORule, evaluate_snapshot, load_rules
from .trace import ObsHub, SpanEvent, Tracer, spans_of

__all__ = [
    "ObsHub", "Tracer", "SpanEvent",
    "MetricsRegistry", "Counter", "Gauge", "Histogram",
    "DEFAULT_LATENCY_BUCKETS_NS", "percentiles_from_buckets",
    "to_prometheus", "format_table", "merge_snapshots",
    "escape_help", "escape_label_value", "series_key", "split_series",
    "to_chrome_trace", "to_folded", "compute_self_ns", "span_paths",
    "spans_of", "profile_from_events", "merge_profiles", "diff_profiles",
    "top_paths", "format_profile", "load_profile", "PROFILE_SCHEMA",
    "FlightRecorder", "SLORule", "load_rules", "evaluate_snapshot",
]
