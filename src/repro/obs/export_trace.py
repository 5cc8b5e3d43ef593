"""Span-ring exporters: Chrome trace-event JSON and collapsed stacks.

Two interchange formats over the tracer's event ring:

* :func:`to_chrome_trace` — the Trace Event Format consumed by Perfetto
  (ui.perfetto.dev) and ``chrome://tracing``.  Spans become ``ph: "X"``
  complete events on one thread lane per *track* (ConcurrentVFS client,
  dedup worker, DWQ shard, recovery, backup), with ``trace_id`` exposed
  in ``args`` so Perfetto's query/flow UI can group a causal chain that
  hops lanes (write → shard handoff → worker drain).  The flight
  recorder's instants become ``ph: "i"`` instant events on the lane of
  the actor that noted them.
* :func:`to_folded` — Brendan Gregg's collapsed-stack format
  (``root;child;leaf <self_ns>``), loadable by ``flamegraph.pl`` and
  speedscope.  The sample weight is **charged simulated ns**, so the
  flamegraph answers "where does modelled time go", not "where does the
  simulator spend wall time".  It folds spans only.

Both reconstruct parent chains from the bounded ring: a span whose
parent was evicted is treated as a root (its subtree is still correct,
only the prefix is lost).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .trace import SpanEvent, spans_of

__all__ = ["to_chrome_trace", "to_folded", "compute_self_ns", "span_paths"]


def compute_self_ns(events: Sequence[SpanEvent]) -> dict[int, float]:
    """Per-span self time: duration minus children's durations.

    Clamped at zero — charge accounting can make a child's captured
    charge exceed the parent's window when work was handed off.
    """
    self_ns = {ev.span_id: ev.duration_ns for ev in events}
    for ev in events:
        if ev.parent_id is not None and ev.parent_id in self_ns:
            self_ns[ev.parent_id] -= ev.duration_ns
    return {sid: max(0.0, v) for sid, v in self_ns.items()}


def span_paths(events: Sequence[SpanEvent]) -> dict[int, tuple[str, ...]]:
    """Root-to-span name path per span id, from surviving parent links."""
    by_id = {ev.span_id: ev for ev in events}
    paths: dict[int, tuple[str, ...]] = {}

    def path_of(ev: SpanEvent) -> tuple[str, ...]:
        cached = paths.get(ev.span_id)
        if cached is not None:
            return cached
        parent = by_id.get(ev.parent_id) if ev.parent_id is not None else None
        p = (path_of(parent) + (ev.name,)) if parent is not None \
            else (ev.name,)
        paths[ev.span_id] = p
        return p

    for ev in events:
        path_of(ev)
    return paths


def to_chrome_trace(events: Iterable) -> dict:
    """Render ring events as a Trace Event Format document (Perfetto-
    loadable): spans as complete events, instants as ``ph: "i"`` events.

    One process, one thread lane per track; timestamps and durations are
    simulated microseconds (the format's native unit).  Returns the
    JSON-able dict; dump it with ``json.dump``.
    """
    events = list(events)
    tracks = sorted({ev.track for ev in events})
    tid_of = {track: i + 1 for i, track in enumerate(tracks)}
    out = [{
        "name": "process_name", "ph": "M", "pid": 1, "tid": 0,
        "args": {"name": "repro (simulated time)"},
    }]
    for track in tracks:
        out.append({
            "name": "thread_name", "ph": "M", "pid": 1,
            "tid": tid_of[track], "args": {"name": track},
        })
    for ev in events:
        out.append({
            "name": ev.name,
            "cat": ev.name.split(".", 1)[0],
            "ph": "X" if ev.span_id else "i",
            "ts": ev.start_ns / 1e3,
            "dur": ev.duration_ns / 1e3,
            "pid": 1,
            "tid": tid_of[ev.track],
            "args": {
                "trace_id": ev.trace_id,
                "span_id": ev.span_id,
                "parent_id": ev.parent_id,
                **dict(ev.attrs),
            },
        })
    return {"traceEvents": out, "displayTimeUnit": "ns"}


def to_folded(events: Iterable) -> str:
    """Collapsed-stack text: ``a;b;c <self_ns>`` per unique path."""
    events = spans_of(events)
    self_ns = compute_self_ns(events)
    paths = span_paths(events)
    agg: dict[tuple[str, ...], float] = {}
    for ev in events:
        p = paths[ev.span_id]
        agg[p] = agg.get(p, 0.0) + self_ns[ev.span_id]
    lines = [f"{';'.join(path)} {round(ns)}"
             for path, ns in sorted(agg.items())]
    return "\n".join(lines) + ("\n" if lines else "")
