"""Counter/gauge/histogram semantics and percentile math."""

import math

import pytest

from repro.core import Config, Variant, make_fs
from repro.nova import PAGE_SIZE
from repro.obs import (DEFAULT_LATENCY_BUCKETS_NS, Counter, Histogram,
                       MetricsRegistry)


class TestNaming:
    def test_dotted_lowercase_required(self):
        reg = MetricsRegistry()
        for bad in ("writes", "Fs.writes_total", "fs.", "fs.Writes_total",
                    "fs writes"):
            with pytest.raises(ValueError):
                reg.gauge(bad)

    def test_counter_requires_total_suffix(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="_total"):
            reg.counter("fs.writes")
        reg.counter("fs.writes_total")  # ok

    def test_type_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.gauge("fs.depth")
        with pytest.raises(ValueError, match="already registered"):
            reg.histogram("fs.depth")

    def test_every_accessor_rejects_another_kind(self):
        reg = MetricsRegistry()
        reg.counter("a.c_total")
        reg.gauge("a.g")
        reg.histogram("a.h_total")
        for name, ask in [("a.g", reg.counter), ("a.h_total", reg.counter),
                          ("a.c_total", reg.gauge), ("a.h_total", reg.gauge),
                          ("a.c_total", reg.histogram),
                          ("a.g", reg.histogram)]:
            with pytest.raises(ValueError, match="already registered as"):
                ask(name)
        for name, ask in [("a.g", reg.counter_fn),
                          ("a.h_total", reg.counter_fn),
                          ("a.c_total", reg.counter_fn),  # not a callback
                          ("a.c_total", reg.gauge_fn), ("a.g", reg.gauge_fn)]:
            with pytest.raises(ValueError, match="is not a callback"):
                ask(name, lambda: 0)
        assert len(reg) == 3

    def test_labeled_series_keys(self):
        reg = MetricsRegistry()
        reg.counter("fs.writes_total", labels={"tenant": "a", "cpu": 1})
        reg.gauge_fn("fs.depth", lambda: 0, labels={"tenant": 'q"\\\n'})
        reg.histogram("fs.lat_ns", labels={"op": "w"})
        reg.counter("fs.reads_total", labels={"t": "b"})
        reg.gauge_fn("fs.free", lambda: 0, labels={})
        assert reg.names() == [
            'fs.depth{tenant="q\\"\\\\\\n"}', "fs.free",
            'fs.lat_ns{op="w"}', 'fs.reads_total{t="b"}',
            'fs.writes_total{cpu="1",tenant="a"}']
        with pytest.raises(ValueError, match="label name"):
            reg.counter("fs.writes_total", labels={"bad-name": "x"})


class TestValidatedOncePerDistinctName:
    """Names and bucket layouts are checked once per distinct value, not
    once per registry; what was rejected is rejected every time, and what
    one metric type accepted says nothing about another."""

    def test_invalid_names_and_buckets_raise_every_time(self):
        for _attempt in range(3):
            reg = MetricsRegistry()
            with pytest.raises(ValueError, match="convention"):
                reg.gauge("Fs.depth")
            with pytest.raises(ValueError, match="convention"):
                reg.counter("nodots_total")
            with pytest.raises(ValueError, match="must end in '_total'"):
                reg.counter("fs.writes")
            with pytest.raises(ValueError, match="must end in '_total'"):
                reg.counter_fn("fs.reads", lambda: 0)
            with pytest.raises(ValueError, match="duplicate bucket"):
                reg.histogram("fs.lat_ns", buckets=(10, 20, 20))
            with pytest.raises(ValueError, match="duplicate bucket"):
                Histogram("fs.lat_ns", buckets=[5, 1, 5])
            with pytest.raises(ValueError, match="empty bucket list"):
                reg.histogram("fs.lat_ns", buckets=())
            assert len(reg) == 0

    def test_a_name_valid_for_a_gauge_is_not_thereby_a_counter(self):
        MetricsRegistry().gauge("fs.depth")
        MetricsRegistry().histogram("fs.depth")
        for _attempt in range(2):
            with pytest.raises(ValueError, match="must end in '_total'"):
                MetricsRegistry().counter("fs.depth")

    def test_unsorted_buckets_are_sorted_each_time(self):
        for _attempt in range(2):
            h = Histogram("fs.lat_ns", buckets=[30, 10, 20])
            assert h.bounds == (10, 20, 30)
        assert Histogram("fs.lat_ns", buckets=[30, 10]).bounds == (10, 30)

    def test_the_default_layout_is_one_tuple(self):
        reg = MetricsRegistry()
        plain = reg.histogram("fs.a_ns")
        named = reg.histogram("fs.b_ns", buckets=DEFAULT_LATENCY_BUCKETS_NS)
        spelled = Histogram("fs.c_ns", buckets=list(DEFAULT_LATENCY_BUCKETS_NS))
        assert plain.bounds is named.bounds
        assert spelled.bounds == plain.bounds == DEFAULT_LATENCY_BUCKETS_NS
        assert reg.histogram("fs.a_ns", DEFAULT_LATENCY_BUCKETS_NS) is plain
        assert reg.histogram("fs.b_ns") is named
        with pytest.raises(ValueError, match="already registered with"):
            reg.histogram("fs.a_ns", buckets=(1, 2, 3))
        reg.histogram("fs.d_ns", buckets=(1, 2, 3))
        with pytest.raises(ValueError, match="already registered with"):
            reg.histogram("fs.d_ns", buckets=DEFAULT_LATENCY_BUCKETS_NS)
        assert reg.histogram("fs.d_ns", buckets=[3, 2, 1]).bounds == (1, 2, 3)

    def test_registries_given_the_same_names_share_no_metric(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for reg in (a, b):
            reg.counter("fs.writes_total")
            reg.gauge("fs.depth")
            reg.histogram("fs.lat_ns", buckets=(1, 2, 3))
            reg.counter("fs.writes_total", labels={"tenant": "t0"})
        assert a.names() == b.names() and len(a) == 4
        for name in a.names():
            assert a.get(name) is not b.get(name)
        a.counter("fs.writes_total").inc(3)
        a.histogram("fs.lat_ns").observe(2)
        assert b.counter("fs.writes_total").value == 0
        assert b.histogram("fs.lat_ns").counts == [0, 0, 0, 0]
        assert a.histogram("fs.lat_ns").counts == [0, 1, 0, 0]


class TestCounterGauge:
    def test_counter_inc_and_view(self):
        reg = MetricsRegistry()
        c = reg.counter("fs.writes_total")
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("a.b_total") is reg.counter("a.b_total")

    def test_gauge_set_inc_dec(self):
        reg = MetricsRegistry()
        g = reg.gauge("dwq.depth")
        g.set(10)
        g.inc(5)
        g.inc(-12)
        assert g.value == 3

    def test_callback_metrics_read_live_and_rebind(self):
        reg = MetricsRegistry()
        state = {"v": 7}
        g = reg.gauge_fn("alloc.free_pages", lambda: state["v"])
        assert g.value == 7
        state["v"] = 9
        assert g.value == 9
        # Rebinding (recovery rebuilds the provider) swaps the closure.
        reg.gauge_fn("alloc.free_pages", lambda: 42)
        assert g.value == 42
        with pytest.raises(TypeError):
            g.set(1)


class TestHistogram:
    def test_bucket_assignment_and_counts(self):
        h = Histogram("x.y_ns", buckets=[10, 20, 30])
        for v in (5, 10, 11, 25, 999):
            h.observe(v)
        # bisect_left: v <= bound goes in that bucket.
        assert h.counts == [2, 1, 1, 1]
        assert h.count == 5
        assert h.sum == 5 + 10 + 11 + 25 + 999
        assert h.min == 5 and h.max == 999

    def test_percentiles_uniform_samples(self):
        # Samples 1..100 into bucket bounds 10,20,...,100: interpolation
        # within uniformly-filled buckets is exact.
        h = Histogram("x.y_ns", buckets=[i * 10 for i in range(1, 11)])
        for v in range(1, 101):
            h.observe(v)
        assert h.percentile(0.5) == pytest.approx(50, abs=1.0)
        assert h.percentile(0.95) == pytest.approx(95, abs=1.0)
        assert h.percentile(0.99) == pytest.approx(99, abs=1.0)
        assert h.percentile(1.0) == 100
        assert h.percentile(0.0) == pytest.approx(1, abs=1.0)

    def test_percentiles_clamped_to_observed_range(self):
        h = Histogram("x.y_ns", buckets=[1000])
        h.observe(400)
        h.observe(600)
        assert 400 <= h.percentile(0.5) <= 600
        assert h.percentile(0.99) <= 600

    def test_overflow_bucket(self):
        h = Histogram("x.y_ns", buckets=[10])
        h.observe(1e9)
        snap = h.snapshot()
        assert snap["buckets"][-1] == [None, 1]
        assert snap["p50"] == pytest.approx(1e9)

    def test_empty_histogram_snapshot(self):
        snap = Histogram("x.y_ns", buckets=[1, 2]).snapshot()
        assert snap["count"] == 0
        assert snap["p50"] == 0.0 and snap["max"] == 0.0
        assert not any(math.isinf(v) for v in (snap["min"], snap["max"]))

    def test_single_sample_all_percentiles_equal_it(self):
        h = Histogram("x.y_ns", buckets=[100, 200])
        h.observe(150)
        for q in (0.0, 0.5, 0.95, 0.99, 1.0):
            assert h.percentile(q) == 150


class TestRegistryLifecycle:
    def test_reset_zeroes_everything(self):
        reg = MetricsRegistry()
        c = reg.counter("a.b_total")
        g = reg.gauge("a.g")
        h = reg.histogram("a.h_ns", buckets=[1])
        c.inc(3)
        g.set(5)
        h.observe(2)
        reg.reset()
        assert c.value == 0 and g.value == 0 and h.count == 0
        assert h.counts == [0, 0]

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("a.b_total").inc()
        reg.gauge("a.g").set(2)
        reg.histogram("a.h_ns", buckets=[10]).observe(5)
        snap = reg.snapshot()
        assert snap["schema"] == "repro.metrics/1"
        assert snap["counters"] == {"a.b_total": 1}
        assert snap["gauges"] == {"a.g": 2}
        assert snap["histograms"]["a.h_ns"]["count"] == 1


class TestViews:
    """Each counter has one name: the code that counts it holds the
    registry ``Counter``, and readers ask the registry by that name."""

    def test_counter_view_dict_protocol(self):
        fs, _ = make_fs(Variant.BASELINE,
                        Config(device_pages=1024, max_inodes=64))
        ino = fs.create("/f")
        for i in range(5):
            fs.write(ino, i * PAGE_SIZE, b"x" * PAGE_SIZE)
        for i in range(3):
            fs.read(ino, i * PAGE_SIZE, PAGE_SIZE)
        counter = fs.obs.registry.counter
        assert counter("fs.writes_total").value == 5
        assert counter("fs.reads_total").value == 3

    def test_registry_stats_attr_protocol(self):
        fs, _ = make_fs(Variant.IMMEDIATE,
                        Config(device_pages=1024, max_inodes=64))
        for i, c in enumerate(b"aabc"):
            fs.write(fs.create(f"/f{i}"), 0, bytes([c]) * 2 * PAGE_SIZE)
        fs.write(fs.lookup("/f2"), 0, b"d" * PAGE_SIZE)
        fs.unlink("/f3")
        fs.daemon.drain()
        got = {k[len("daemon."):-len("_total")]: v for k, v in
               fs.obs.snapshot()["counters"].items()
               if k.startswith("daemon.")}
        assert got == {"nodes_processed": 4, "nodes_stale": 1,
                       "pages_scanned": 7, "pages_stale": 1,
                       "pages_unique": 3, "pages_duplicate": 3,
                       "pages_reclaimed": 3, "fact_full_events": 0,
                       "reorders": 0}
        # A counter only moves forward.
        assert not hasattr(Counter, "set")
