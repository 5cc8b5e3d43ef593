"""Metric arithmetic shared by the workloads and the runner.

Histograms travel as ``repro.metrics/1`` snapshot dicts (what
``fs.obs.snapshot()["histograms"][name]`` holds); percentiles always go
through :func:`repro.obs.percentiles_from_buckets`, the program's own
interpolation, so a merged client histogram reads exactly as one
``Histogram`` fed the same samples would.
"""

from __future__ import annotations

import json
import pathlib

from repro.obs import percentiles_from_buckets

from e2e.trace import LAYERS

__all__ = ["SPEC_PATH", "load_spec", "merge_histograms", "delta_histogram",
           "percentile", "counter_delta", "ratio", "per_layer_metrics"]

SPEC_PATH = pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load_spec() -> dict:
    """``BENCHMARK.json``: the one place metric names, units, directions
    and bounds and the workloads' rationales are written down."""
    return json.loads(SPEC_PATH.read_text())


# ---------------------------------------------------------------- histograms

_EMPTY = {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0, "buckets": []}


def merge_histograms(snaps: list[dict]) -> dict:
    """Sum same-layout histogram snapshots bucket by bucket."""
    snaps = [s for s in snaps if s and s["count"]]
    if not snaps:
        return dict(_EMPTY)
    bounds = [b for b, _ in snaps[0]["buckets"]]
    for s in snaps[1:]:
        if [b for b, _ in s["buckets"]] != bounds:
            raise ValueError("cannot merge histograms with different buckets")
    return {
        "count": sum(s["count"] for s in snaps),
        "sum": sum(s["sum"] for s in snaps),
        "min": min(s["min"] for s in snaps),
        "max": max(s["max"] for s in snaps),
        "buckets": [[b, sum(s["buckets"][i][1] for s in snaps)]
                    for i, b in enumerate(bounds)],
    }


def delta_histogram(after: dict | None, before: dict | None) -> dict:
    """Samples observed between two snapshots of one histogram.

    ``min``/``max`` only clamp the interpolation, so the later
    snapshot's extremes stand in for the interval's.
    """
    if not after or not after["count"]:
        return dict(_EMPTY)
    if not before or not before["count"]:
        return after
    return {
        "count": after["count"] - before["count"],
        "sum": after["sum"] - before["sum"],
        "min": after["min"], "max": after["max"],
        "buckets": [[b, c - before["buckets"][i][1]]
                    for i, (b, c) in enumerate(after["buckets"])],
    }


def percentile(hist: dict, q: float) -> float:
    if not hist["count"]:
        return 0.0
    bounds, counts = zip(*hist["buckets"])
    return percentiles_from_buckets(
        bounds, counts, hist["count"], hist["min"], hist["max"], (q,))[0]


def counter_delta(after: dict, before: dict, name: str) -> float:
    return (after["counters"].get(name, 0)
            - before["counters"].get(name, 0))


# ---------------------------------------------------------------- per layer

def ratio(num: float, den: float) -> float:
    """``num / den``, 0 where the layer did nothing."""
    return num / den if den else 0.0


def per_layer_metrics(layers: dict, root: dict, counts: dict,
                      untraced_host_s: float) -> dict[str, float]:
    """Every per-layer metric of one traced pass, by name.

    ``layers`` is :meth:`Tracer.by_layer` and ``root`` the root span,
    with its duration at nominal sandbox speed added, which is how
    ``untraced_host_s`` is given too;
    ``counts`` holds the workload's counters read from public
    statistics, plus two operands: ``ops`` (operations issued in the
    timed section) and ``nova.log.appends`` (traced ``append`` calls).
    """
    counts = dict(counts)
    ops, appends = counts.pop("ops"), counts.pop("nova.log.appends")
    out: dict[str, float] = {}
    for layer in LAYERS:
        for key, value in layers[layer].items():
            out[f"{layer}.{key}"] = value
    out.update(counts)
    out["pm.allocator.host_us_per_call"] = ratio(
        layers["pm.allocator"]["host_self_s"] * 1e6,
        layers["pm.allocator"]["calls"])
    out["nova.log.appends_per_op"] = ratio(appends, ops)
    out["sim.host_us_per_event"] = ratio(
        layers["sim"]["host_self_s"] * 1e6, counts["sim.events"])
    out["trace.overhead_ratio"] = ratio(root["host_nominal_s"],
                                         untraced_host_s)
    out["trace.unattributed_host_share"] = ratio(
        root["host_self_s"], root["host_s"])
    return out
