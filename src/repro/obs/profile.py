"""Simulated-time profiler: span stacks → call-tree of charged ns.

Aggregates the tracer's span ring into a profile keyed by root-to-leaf
name path (``recovery.mount;recovery.log_replay``), with per-path
``count`` / ``total_ns`` / ``self_ns``.  The sample weight is **charged
simulated nanoseconds** — the profile attributes modelled work, the
quantity Eq. 1-5 predict, never wall time.

Stable interchange shape (``repro.profile/1``)::

    {"schema": "repro.profile/1", "unit": "charged_ns", "spans": 123,
     "stacks": {"fs.write": {"count": 10, "total_ns": 5e4,
                             "self_ns": 2e4}, ...}}

Profiles are mergeable (per-path sums), which is how the
``<image>.profile.json`` sidecar accumulates across CLI invocations,
and diffable (per-path subtraction) for before/after comparisons of the
same workload.
"""

from __future__ import annotations

import json
from typing import Iterable, Optional

from .export_trace import compute_self_ns, span_paths
from .trace import spans_of

__all__ = ["profile_from_events", "merge_profiles", "diff_profiles",
           "top_paths", "format_profile", "load_profile", "PROFILE_SCHEMA"]

PROFILE_SCHEMA = "repro.profile/1"
_SEP = ";"


def _empty() -> dict:
    return {"schema": PROFILE_SCHEMA, "unit": "charged_ns", "spans": 0,
            "stacks": {}}


def profile_from_events(events: Iterable) -> dict:
    """Aggregate a ring's spans into a ``repro.profile/1`` document."""
    events = spans_of(events)
    self_ns = compute_self_ns(events)
    paths = span_paths(events)
    stacks: dict[str, dict] = {}
    for ev in events:
        key = _SEP.join(paths[ev.span_id])
        node = stacks.setdefault(
            key, {"count": 0, "total_ns": 0.0, "self_ns": 0.0})
        node["count"] += 1
        node["total_ns"] += ev.duration_ns
        node["self_ns"] += self_ns[ev.span_id]
    return {"schema": PROFILE_SCHEMA, "unit": "charged_ns",
            "spans": len(events), "stacks": stacks}


def merge_profiles(*profiles: Optional[dict]) -> dict:
    """Per-path sum of any number of profiles (``None`` entries skipped)."""
    out = _empty()
    for p in profiles:
        if not p:
            continue
        out["spans"] += p.get("spans", 0)
        for key, node in p.get("stacks", {}).items():
            dst = out["stacks"].setdefault(
                key, {"count": 0, "total_ns": 0.0, "self_ns": 0.0})
            dst["count"] += node["count"]
            dst["total_ns"] += node["total_ns"]
            dst["self_ns"] += node["self_ns"]
    return out


def diff_profiles(new: dict, old: dict) -> dict:
    """Per-path ``new - old``; paths that cancel exactly are dropped.

    Negative deltas are kept — a path that got *cheaper* is as
    interesting as one that got hotter.
    """
    out = _empty()
    out["spans"] = new.get("spans", 0) - old.get("spans", 0)
    keys = set(new.get("stacks", {})) | set(old.get("stacks", {}))
    zero = {"count": 0, "total_ns": 0.0, "self_ns": 0.0}
    for key in keys:
        a = new.get("stacks", {}).get(key, zero)
        b = old.get("stacks", {}).get(key, zero)
        d = {"count": a["count"] - b["count"],
             "total_ns": a["total_ns"] - b["total_ns"],
             "self_ns": a["self_ns"] - b["self_ns"]}
        if d["count"] or d["total_ns"] or d["self_ns"]:
            out["stacks"][key] = d
    return out


def top_paths(profile: dict, n: int = 10,
              key: str = "self_ns") -> list[tuple[str, dict]]:
    """The ``n`` hottest paths by ``key`` (absolute value, so diff
    profiles rank big regressions and big wins alike)."""
    items = sorted(profile.get("stacks", {}).items(),
                   key=lambda kv: (-abs(kv[1][key]), kv[0]))
    return items[:n] if n else items


def _fmt_ns(v: float) -> str:
    sign = "-" if v < 0 else ""
    v = abs(v)
    for unit, scale in (("s", 1e9), ("ms", 1e6), ("us", 1e3)):
        if v >= scale:
            return f"{sign}{v / scale:.2f}{unit}"
    return f"{sign}{v:.0f}ns"


def format_profile(profile: dict, top: int = 15,
                   sort: str = "self_ns") -> str:
    """Human-readable call tree plus a top-N hot-path table."""
    stacks = profile.get("stacks", {})
    lines = [f"profile: {profile.get('spans', 0)} spans, "
             f"{len(stacks)} unique stacks (unit: charged simulated ns)"]

    # Call tree: nodes keyed by path prefix; prefix-only nodes (whose
    # exact path recorded no spans) inherit totals from their children.
    tree: dict[tuple[str, ...], dict] = {}
    for key, node in stacks.items():
        path = tuple(key.split(_SEP))
        for depth in range(1, len(path) + 1):
            tree.setdefault(path[:depth],
                            {"count": 0, "total_ns": 0.0, "self_ns": 0.0})
        dst = tree[path]
        dst["count"] += node["count"]
        dst["total_ns"] += node["total_ns"]
        dst["self_ns"] += node["self_ns"]
    for path in sorted(tree, key=len, reverse=True):
        node = tree[path]
        if node["count"] == 0:  # prefix-only: roll up children
            kids = [tree[p] for p in tree
                    if len(p) == len(path) + 1 and p[:-1] == path]
            node["total_ns"] = sum(k["total_ns"] for k in kids)

    lines.append("")
    lines.append(f"{'total':>10} {'self':>10} {'count':>7}  call tree")
    roots = sorted((p for p in tree if len(p) == 1),
                   key=lambda p: -tree[p]["total_ns"])

    def emit(path: tuple[str, ...], depth: int) -> None:
        node = tree[path]
        lines.append(f"{_fmt_ns(node['total_ns']):>10} "
                     f"{_fmt_ns(node['self_ns']):>10} "
                     f"{node['count']:>7}  {'  ' * depth}{path[-1]}")
        kids = sorted((p for p in tree
                       if len(p) == len(path) + 1 and p[:-1] == path),
                      key=lambda p: -tree[p]["total_ns"])
        for k in kids:
            emit(k, depth + 1)

    for r in roots:
        emit(r, 0)

    lines.append("")
    lines.append(f"top {top} by {sort}:")
    for key, node in top_paths(profile, top, sort):
        lines.append(f"  {_fmt_ns(node[sort]):>10}  {key} "
                     f"(x{node['count']})")
    return "\n".join(lines) + "\n"


def load_profile(path: str) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("schema") != PROFILE_SCHEMA:
        raise ValueError(f"{path}: not a {PROFILE_SCHEMA} document "
                         f"(schema={doc.get('schema')!r})")
    return doc
