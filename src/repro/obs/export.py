"""Exporters over ``repro.metrics/1`` snapshot dicts.

All three exporters (JSON is just ``json.dumps(snapshot)``, so only
Prometheus and the human table live here) work on *snapshots* rather
than live registries: a snapshot is what the CLI persists in the
``<image>.metrics.json`` sidecar, and working on the dict means a
metrics dump from a previous process exports exactly like a live one.

``merge_snapshots`` is what makes the sidecar useful: each CLI
invocation is its own process with its own registry, so the per-image
history is a fold of per-run snapshots — counters and histogram buckets
sum, gauges take the latest value.
"""

from __future__ import annotations

import math
from typing import Optional

from .registry import (escape_label_value, percentiles_from_buckets,
                       split_series)

__all__ = ["to_prometheus", "format_table", "merge_snapshots",
           "escape_help", "escape_label_value"]


def escape_help(s: str) -> str:
    """Escape a HELP line per the Prometheus text exposition format."""
    return s.replace("\\", "\\\\").replace("\n", "\\n")


def _prom_name(name: str) -> str:
    return f"repro_{name.replace('.', '_')}"


def _families(section: dict) -> list[tuple[str, list[tuple[str, object]]]]:
    """Group a snapshot section's series by base metric name.

    Returns ``[(base, [(label_suffix, value), ...]), ...]`` sorted by
    base name, suffixes sorted within a family — one HELP/TYPE header
    per family regardless of how many labeled series it carries.
    """
    fams: dict[str, list[tuple[str, object]]] = {}
    for key, value in section.items():
        base, suffix = split_series(key)
        fams.setdefault(base, []).append((suffix, value))
    return [(base, sorted(fams[base])) for base in sorted(fams)]


def _fmt(v: float) -> str:
    if v != v:
        return "NaN"
    if v == math.inf:
        return "+Inf"
    if v == -math.inf:
        return "-Inf"
    if float(v).is_integer() and abs(v) < 1e15:
        return str(int(v))
    return repr(float(v))


def to_prometheus(snapshot: dict) -> str:
    """Render a snapshot in the Prometheus text exposition format."""
    lines: list[str] = []

    for name, series in _families(snapshot.get("counters", {})):
        pname = _prom_name(name)
        lines.append(f"# HELP {pname} {escape_help(name)}")
        lines.append(f"# TYPE {pname} counter")
        for suffix, value in series:
            lines.append(f"{pname}{suffix} {_fmt(value)}")

    for name, series in _families(snapshot.get("gauges", {})):
        pname = _prom_name(name)
        lines.append(f"# HELP {pname} {escape_help(name)}")
        lines.append(f"# TYPE {pname} gauge")
        for suffix, value in series:
            lines.append(f"{pname}{suffix} {_fmt(value)}")

    for name, series in _families(snapshot.get("histograms", {})):
        pname = _prom_name(name)
        lines.append(f"# HELP {pname} {escape_help(name)}")
        lines.append(f"# TYPE {pname} histogram")
        for suffix, h in series:
            cum = 0
            for bound, c in h["buckets"]:
                cum += c
                le = "+Inf" if bound is None else _fmt(bound)
                if suffix:
                    blabels = f'{suffix[:-1]},le="{le}"}}'
                else:
                    blabels = f'{{le="{le}"}}'
                lines.append(f"{pname}_bucket{blabels} {cum}")
            lines.append(f"{pname}_sum{suffix} {_fmt(h['sum'])}")
            lines.append(f"{pname}_count{suffix} {h['count']}")

    return "\n".join(lines) + "\n"


def format_table(snapshot: dict, title: str = "metrics") -> str:
    """Human-readable dump: counters, gauges, histogram percentiles."""
    rows: list[tuple[str, str]] = []
    for name, v in sorted(snapshot.get("counters", {}).items()):
        rows.append((name, _fmt(v)))
    for name, v in sorted(snapshot.get("gauges", {}).items()):
        rows.append((name, _fmt(v)))
    for name, h in sorted(snapshot.get("histograms", {}).items()):
        if not h["count"]:
            continue
        rows.append((
            name,
            f"n={h['count']} p50={_fmt(round(h['p50'], 1))} "
            f"p95={_fmt(round(h['p95'], 1))} p99={_fmt(round(h['p99'], 1))} "
            f"max={_fmt(h['max'])}"))
    if not rows:
        return f"{title}: (empty)\n"
    w = max(len(n) for n, _ in rows)
    out = [title, "-" * len(title)]
    out += [f"{n:<{w}}  {v}" for n, v in rows]
    return "\n".join(out) + "\n"


def _merge_hist(a: Optional[dict], b: Optional[dict]) -> dict:
    if a is None:
        return b
    if b is None:
        return a
    bounds_a = [x[0] for x in a["buckets"]]
    bounds_b = [x[0] for x in b["buckets"]]
    if bounds_a != bounds_b:
        # Bucket layout changed between runs — the old distribution is
        # not mergeable; keep the newer one.
        return b
    counts = [ca + cb for (_, ca), (_, cb) in zip(a["buckets"],
                                                  b["buckets"])]
    count = a["count"] + b["count"]
    mn = min(a["min"], b["min"]) if count else 0.0
    mx = max(a["max"], b["max"]) if count else 0.0
    if a["count"] == 0:
        mn, mx = b["min"], b["max"]
    elif b["count"] == 0:
        mn, mx = a["min"], a["max"]
    ps = percentiles_from_buckets(bounds_a, counts, count, mn, mx,
                                  (0.5, 0.95, 0.99))
    return {
        "count": count,
        "sum": a["sum"] + b["sum"],
        "min": mn, "max": mx,
        "p50": ps[0], "p95": ps[1], "p99": ps[2],
        "buckets": [[bd, c] for bd, c in zip(bounds_a, counts)],
    }


def merge_snapshots(older: dict, newer: dict) -> dict:
    """Fold ``newer`` onto ``older`` (counters sum, gauges take newer)."""
    out = {"schema": "repro.metrics/1", "counters": {}, "gauges": {},
           "histograms": {}}
    out["counters"] = dict(older.get("counters", {}))
    for k, v in newer.get("counters", {}).items():
        out["counters"][k] = out["counters"].get(k, 0) + v
    out["gauges"] = dict(older.get("gauges", {}))
    out["gauges"].update(newer.get("gauges", {}))
    ha = older.get("histograms", {})
    hb = newer.get("histograms", {})
    for k in {**ha, **hb}:      # first-seen order, never a set's
        out["histograms"][k] = _merge_hist(ha.get(k), hb.get(k))
    ta = older.get("trace", {})
    tb = newer.get("trace", {})
    if ta or tb:
        out["trace"] = {
            "spans_recorded": ta.get("spans_recorded", 0)
            + tb.get("spans_recorded", 0),
            "spans_evicted": ta.get("spans_evicted", 0)
            + tb.get("spans_evicted", 0),
        }
    return out
