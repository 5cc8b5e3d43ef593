"""Prometheus exposition round-trip: a minimal line parser over a real
filesystem's metrics asserts the text format is internally consistent —
escaping, ``+Inf``/``NaN`` handling, cumulative ``_bucket`` monotonicity
and ``_bucket``/``_sum``/``_count`` agreement for every histogram."""

import math
import re

import pytest

from repro.dedup import DeNovaFS
from repro.nova import PAGE_SIZE
from repro.obs import ObsHub, to_prometheus
from repro.pm import DRAM, PMDevice, SimClock

# Labels matched greedily up to the last "}": a "}" inside a quoted
# label value is legal exposition and must not end the label block.
_SAMPLE = re.compile(
    r'^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)'
    r'(?:\{(?P<labels>.*)\})?'
    r' (?P<value>\S+)$')
_LABEL = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')


def _unescape_label(s):
    """Invert exposition label-value escaping with a left-to-right scan
    (naive chained .replace() corrupts values like a literal
    backslash-n, whose escaped form is backslash-backslash-n)."""
    out = []
    i = 0
    while i < len(s):
        if s[i] == "\\" and i + 1 < len(s):
            out.append({"n": "\n", '"': '"', "\\": "\\"}.get(
                s[i + 1], "\\" + s[i + 1]))
            i += 2
        else:
            out.append(s[i])
            i += 1
    return "".join(out)


def _parse_value(s):
    if s == "+Inf":
        return math.inf
    if s == "-Inf":
        return -math.inf
    if s == "NaN":
        return math.nan
    return float(s)


def parse_exposition(text):
    """Parse the text format into {name: {"type", "help", "samples"}}.

    ``samples`` is a list of (name, labels-dict, value) including the
    ``_bucket``/``_sum``/``_count`` series of histograms, attached to
    the family whose ``# TYPE`` introduced them.
    """
    families = {}
    current = None
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line:
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_text = rest.partition(" ")
            families.setdefault(name, {"samples": []})["help"] = help_text
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            assert kind in ("counter", "gauge", "histogram"), \
                f"line {lineno}: bad type {kind!r}"
            current = families.setdefault(name, {"samples": []})
            current["type"] = kind
            current["name"] = name
            continue
        assert not line.startswith("#"), f"line {lineno}: stray comment"
        m = _SAMPLE.match(line)
        assert m, f"line {lineno}: unparseable sample {line!r}"
        labels = {}
        if m.group("labels"):
            for lm in _LABEL.finditer(m.group("labels")):
                labels[lm.group(1)] = _unescape_label(lm.group(2))
        assert current is not None, f"line {lineno}: sample before TYPE"
        sname = m.group("name")
        assert sname == current["name"] or \
            sname.startswith(current["name"] + "_"), \
            f"line {lineno}: {sname} outside family {current['name']}"
        current["samples"].append(
            (sname, labels, _parse_value(m.group("value"))))
    return families


def _check_consistency(families):
    """Internal consistency of a parsed exposition.

    A family may carry any number of labeled series (one per distinct
    label set — e.g. ``tenant.ops_total{tenant="tn0"}`` next to
    ``{tenant="tn1"}``); within a family each label set must be unique,
    and each histogram series must satisfy the cumulative-bucket
    contract independently.
    """
    for name, fam in families.items():
        assert "type" in fam, f"{name}: TYPE line missing"
        assert "help" in fam, f"{name}: HELP line missing"
        if fam["type"] in ("counter", "gauge"):
            assert fam["samples"], f"{name}: family with no samples"
            seen = set()
            for sname, labels, value in fam["samples"]:
                assert sname == name
                key = tuple(sorted(labels.items()))
                assert key not in seen, f"{name}: duplicate series {labels}"
                seen.add(key)
                if fam["type"] == "counter":
                    assert value >= 0
            continue
        # histogram: one bucket/sum/count triple per label set.
        series = {}
        for sname, labels, v in fam["samples"]:
            key = tuple(sorted((k, lv) for k, lv in labels.items()
                               if k != "le"))
            s = series.setdefault(key, {"buckets": [], "sums": [],
                                        "counts": []})
            if sname == f"{name}_bucket":
                s["buckets"].append((labels["le"], v))
            elif sname == f"{name}_sum":
                s["sums"].append(v)
            elif sname == f"{name}_count":
                s["counts"].append(v)
            else:
                raise AssertionError(f"{name}: stray sample {sname}")
        assert series, f"{name}: no histogram series"
        for key, s in series.items():
            where = f"{name}{dict(key) or ''}"
            assert s["buckets"], f"{where}: no _bucket series"
            assert len(s["sums"]) == 1 and len(s["counts"]) == 1, \
                f"{where}: want exactly one _sum and _count"
            les = [_parse_value(le) for le, _ in s["buckets"]]
            assert les == sorted(les), f"{where}: le bounds not ascending"
            assert les[-1] == math.inf, \
                f"{where}: missing le=\"+Inf\" bucket"
            cum = [v for _, v in s["buckets"]]
            assert cum == sorted(cum), f"{where}: buckets not cumulative"
            assert cum[-1] == s["counts"][0], \
                f"{where}: +Inf bucket {cum[-1]} != _count {s['counts'][0]}"
            if s["counts"][0]:
                assert not math.isnan(s["sums"][0])


class TestRoundTripLive:
    def test_real_image_exposition_is_consistent(self):
        dev = PMDevice(1024 * PAGE_SIZE, model=DRAM, clock=SimClock())
        fs = DeNovaFS.mkfs(dev, max_inodes=32)
        ino = fs.create("/a.txt")
        fs.write(ino, 0, b"x" * PAGE_SIZE * 3)
        fs.read(ino, 0, PAGE_SIZE)
        fs.daemon.drain()
        text = to_prometheus(fs.obs.snapshot())
        fams = parse_exposition(text)
        _check_consistency(fams)
        # The traced ops' auto-histograms all made it through.
        assert fams["repro_fs_write_latency_ns"]["type"] == "histogram"
        # HELP carries the original dotted metric name.
        assert fams["repro_fs_write_latency_ns"]["help"] \
            .startswith("fs.write_latency_ns")
        # Dots become underscores, every family carries the prefix.
        assert all(f.startswith("repro_") for f in fams)
        assert not any("." in f for f in fams)


class TestRoundTripEdgeValues:
    def test_inf_nan_and_escaping_survive(self):
        hub = ObsHub(clock=SimClock())
        hub.registry.gauge("edge.inf").set(math.inf)
        hub.registry.gauge("edge.neg_inf").set(-math.inf)
        hub.registry.gauge("edge.nan").set(math.nan)
        hub.registry.gauge("edge.float").set(2.5)
        hub.registry.counter("edge.big_total").inc(3)
        text = to_prometheus(hub.snapshot())
        fams = parse_exposition(text)
        _check_consistency(fams)
        val = {n: f["samples"][0][2] for n, f in fams.items()}
        assert val["repro_edge_inf"] == math.inf
        assert val["repro_edge_neg_inf"] == -math.inf
        assert math.isnan(val["repro_edge_nan"])
        assert val["repro_edge_float"] == 2.5
        assert val["repro_edge_big_total"] == 3
        # Raw tokens, not Python reprs.
        assert "repro_edge_inf +Inf" in text
        assert "repro_edge_nan NaN" in text

    def test_empty_histogram_still_consistent(self):
        hub = ObsHub(clock=SimClock())
        hub.registry.histogram("quiet.lat_ns", buckets=(10, 100))
        fams = parse_exposition(to_prometheus(hub.snapshot()))
        _check_consistency(fams)
        fam = fams["repro_quiet_lat_ns"]
        count = [v for n, _, v in fam["samples"]
                 if n == "repro_quiet_lat_ns_count"][0]
        assert count == 0

    def test_every_observation_lands_in_exactly_one_bucket(self):
        clock = SimClock()
        hub = ObsHub(clock=clock)
        h = hub.registry.histogram("lat.ns", buckets=(10, 100, 1000))
        for v in (5, 50, 500, 5000, 50000):
            h.observe(v)
        fams = parse_exposition(to_prometheus(hub.snapshot()))
        _check_consistency(fams)
        fam = fams["repro_lat_ns"]
        cum = [v for n, labels, v in fam["samples"]
               if n == "repro_lat_ns_bucket"]
        assert cum == [1, 2, 3, 5]  # 5000 and 50000 overflow to +Inf


class TestLabeledRoundTrip:
    def test_labeled_counter_series_group_into_one_family(self):
        hub = ObsHub(clock=SimClock())
        for tn, n in (("tn0", 3), ("tn1", 7), ("tn2", 1)):
            hub.registry.counter("tenant.ops_total",
                                 labels={"tenant": tn}).inc(n)
        hub.registry.counter("tenant.ops_total").inc(11)   # unlabeled sibling
        text = to_prometheus(hub.snapshot())
        fams = parse_exposition(text)
        _check_consistency(fams)
        fam = fams["repro_tenant_ops_total"]
        assert fam["type"] == "counter"
        by_labels = {tuple(sorted(l.items())): v
                     for _, l, v in fam["samples"]}
        assert by_labels[(("tenant", "tn0"),)] == 3
        assert by_labels[(("tenant", "tn1"),)] == 7
        assert by_labels[(("tenant", "tn2"),)] == 1
        assert by_labels[()] == 11
        # One TYPE line for the whole family, not one per series.
        assert text.count("# TYPE repro_tenant_ops_total counter") == 1

    def test_labeled_histogram_series_independent(self):
        hub = ObsHub(clock=SimClock())
        a = hub.registry.histogram("t.lat_ns", buckets=(10, 100),
                                   labels={"tenant": "a"})
        b = hub.registry.histogram("t.lat_ns", buckets=(10, 100),
                                   labels={"tenant": "b"})
        for v in (5, 50, 500):
            a.observe(v)
        b.observe(7)
        fams = parse_exposition(to_prometheus(hub.snapshot()))
        _check_consistency(fams)
        fam = fams["repro_t_lat_ns"]
        counts = {l["tenant"]: v for n, l, v in fam["samples"]
                  if n == "repro_t_lat_ns_count"}
        assert counts == {"a": 3, "b": 1}

    def test_multi_label_sort_order_canonical(self):
        """Two insertion orders of the same label set are one series."""
        hub = ObsHub(clock=SimClock())
        hub.registry.counter("x.ops_total", labels={"b": "2", "a": "1"}).inc()
        hub.registry.counter("x.ops_total", labels={"a": "1", "b": "2"}).inc()
        fams = parse_exposition(to_prometheus(hub.snapshot()))
        _check_consistency(fams)
        (sample,) = fams["repro_x_ops_total"]["samples"]
        assert sample[1] == {"a": "1", "b": "2"}
        assert sample[2] == 2

    @pytest.mark.parametrize("value", [
        'plain', 'back\\slash', 'quo"te', 'line\nbreak',
        'all\\three\n"at once"', 'close}brace', 'comma,eq=uals',
        '\\n literal backslash-n', ''])
    def test_label_value_escaping_round_trips(self, value):
        """Every escaping edge case must survive export -> parse."""
        hub = ObsHub(clock=SimClock())
        hub.registry.counter("esc.ops_total", labels={"k": value}).inc(5)
        text = to_prometheus(hub.snapshot())
        assert "\n\n" not in text         # escaped, not raw, newlines
        fams = parse_exposition(text)
        _check_consistency(fams)
        (sample,) = fams["repro_esc_ops_total"]["samples"]
        assert sample[1] == {"k": value}
        assert sample[2] == 5

    def test_fleet_metrics_exposition_consistent(self):
        """A real multi-tenant filesystem's labeled metering exports a
        parseable, internally consistent exposition."""
        dev = PMDevice(1024 * PAGE_SIZE, model=DRAM, clock=SimClock())
        fs = DeNovaFS.mkfs(dev, max_inodes=64)
        for tn in ("tn0", "tn1"):
            fs.tenant_create(tn, quota_pages=64)
            ino = fs.create(f"/t/{tn}/f")
            fs.write(ino, 0, b"\xcd" * PAGE_SIZE)
        fs.daemon.drain()
        fams = parse_exposition(to_prometheus(fs.obs.snapshot()))
        _check_consistency(fams)
        used = {l["tenant"]: v
                for n, l, v in fams["repro_tenant_used_pages"]["samples"]}
        assert used == {"tn0": 1.0, "tn1": 1.0}


class TestHelpEscaping:
    def test_backslash_and_newline_escaped(self):
        from repro.obs import escape_help
        snap = {"counters": {"odd.name_total": 1}, "gauges": {},
                "histograms": {}}
        text = to_prometheus(snap)
        assert "# HELP repro_odd_name_total odd.name_total" in text
        assert escape_help("a\\b\nc") == "a\\\\b\\nc"

    def test_label_value_escaping(self):
        from repro.obs import escape_label_value
        assert escape_label_value('he said "hi"\\n') == \
            'he said \\"hi\\"\\\\n'
