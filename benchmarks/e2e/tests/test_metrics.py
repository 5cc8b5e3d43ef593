"""Histogram arithmetic, and the output against ``BENCHMARK.json``."""

import importlib.util
import json
import random
import re
import time

import pytest

from e2e import metrics
from e2e.trace import LAYERS, Tracer
from e2e.workloads import WORKLOADS, PassSpec
from repro.obs import Histogram

BUCKETS = (1e2, 5e2, 1e3, 5e3, 1e4, 5e4, 1e5)


def _histogram(samples) -> Histogram:
    h = Histogram("test.latency_ns", buckets=BUCKETS)
    for v in samples:
        h.observe(v)
    return h


def test_merged_client_histograms_read_like_one_histogram():
    rng = random.Random(5)
    clients = [[rng.lognormvariate(7, 1.5) for _ in range(rng.randint(50, 400))]
               for _ in range(4)]
    merged = metrics.merge_histograms(
        [_histogram(c).snapshot() for c in clients])
    whole = _histogram([v for c in clients for v in c])
    assert merged["count"] == whole.count
    assert merged["sum"] == pytest.approx(whole.sum)
    for q in (0.5, 0.9, 0.99, 1.0):
        assert metrics.percentile(merged, q) == whole.percentile(q)


def test_merge_skips_empty_and_refuses_other_layouts():
    empty = _histogram([]).snapshot()
    one = _histogram([200.0, 700.0]).snapshot()
    assert metrics.merge_histograms([empty, one, None]) == {
        k: one[k] for k in ("count", "sum", "min", "max", "buckets")}
    assert metrics.percentile(metrics.merge_histograms([empty]), 0.99) == 0.0
    other = Histogram("test.other_ns", buckets=(1.0, 2.0))
    other.observe(1.5)
    with pytest.raises(ValueError):
        metrics.merge_histograms([one, other.snapshot()])


def test_delta_histogram_is_what_was_observed_in_between():
    rng = random.Random(9)
    first = [rng.uniform(50, 2e5) for _ in range(300)]
    later = [rng.uniform(50, 2e5) for _ in range(500)]
    h = _histogram(first)
    before = h.snapshot()
    for v in later:
        h.observe(v)
    delta = metrics.delta_histogram(h.snapshot(), before)
    only_later = _histogram(later).snapshot()
    assert delta["count"] == 500
    assert delta["sum"] == pytest.approx(only_later["sum"])
    assert delta["buckets"] == only_later["buckets"]
    assert metrics.delta_histogram(before, None) == before
    assert metrics.delta_histogram(None, None)["count"] == 0


# ---------------------------------------------------------------- the contract

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_benchmark_json_has_the_contract_shape():
    spec = metrics.load_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/e2e"]
    assert spec["command"][-1].startswith(spec["paths"][0] + "/")
    assert isinstance(spec["run_seconds"], int)
    assert 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    names = []
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    for section, keys in (("end_to_end", {"name", "unit", "better", "bound"}),
                          ("per_layer", {"name", "unit", "better"})):
        for m in spec[section]:
            assert set(m) == keys
            assert UNIT.fullmatch(m["unit"]), m
            assert m["better"] in ("higher", "lower")
            names.append(m["name"])
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert len(json.dumps(spec)) < 64 * 1024
    for layer in LAYERS:
        for key in ("calls", "host_self_s", "sim_self_ms"):
            assert f"{layer}.{key}" in names


def _load_run():
    path = metrics.SPEC_PATH.parent / "benchmarks" / "e2e" / "run.py"
    module_spec = importlib.util.spec_from_file_location("e2e_run", path)
    module = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_a_tiny_traced_pass_yields_exactly_the_declared_metrics(workload):
    """End to end at 1/30 size: set-up, traced section, verification,
    and the contract's last line for both kinds of run."""
    run, spec = _load_run(), metrics.load_spec()
    tracer = Tracer()
    result = WORKLOADS[workload](PassSpec(
        seed=3, scale=1 / 30, tracer=tracer, t_start=time.perf_counter(),
        check_invariants=True, calibrate=lambda: 0.5))
    assert result.failed == 0 and not result.problems
    assert result.ref_s == 0.5 and result.timed_s == tracer.root["host_s"]
    assert result.attempted > result.units > 0
    assert set(result.samples) == set(result.e2e)

    layers = tracer.by_layer()
    total = sum(v["host_self_s"] for v in layers.values())
    assert total + tracer.root["host_self_s"] == pytest.approx(
        tracer.root["host_s"], rel=1e-9)

    result.counts["nova.log.appends"] = tracer.by_boundary[
        "repro.nova.log:LogManager.append"][0]
    tracer.root["host_nominal_s"] = result.timed_s
    folded = {
        "correct": True, "attempted": result.attempted,
        "failed": result.failed,
        "end_to_end": {**result.e2e, "host_ops_s": 1.0,
                       "host_peak_rss_mb": result.rss_mb,
                       "setup_s": result.setup_s},
        "per_layer": metrics.per_layer_metrics(
            layers, tracer.root, result.counts, result.timed_s),
    }
    for traced, section in ((False, "end_to_end"), (True, "per_layer")):
        line = json.loads(run.contract_line(folded, spec, traced))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert list(line["metrics"]) == [m["name"] for m in spec[section]]
        for m in spec[section]:
            entry = line["metrics"][m["name"]]
            assert set(entry) == {"value", "unit"}
            assert entry["unit"] == m["unit"]
            assert isinstance(entry["value"], (int, float))
    assert all(v != 0 for v in folded["end_to_end"].values())
    assert folded["per_layer"]["trace.overhead_ratio"] == pytest.approx(1.0)


def test_undeclared_metric_is_refused():
    run, spec = _load_run(), metrics.load_spec()
    values = {m["name"]: 1.0 for m in spec["end_to_end"]}
    values["sim_extra"] = 1.0
    with pytest.raises(SystemExit, match="sim_extra"):
        run.contract_line({"correct": True, "attempted": 1, "failed": 0,
                           "end_to_end": values}, spec, traced=False)
