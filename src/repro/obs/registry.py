"""Typed metrics: counters, gauges, and fixed-bucket histograms.

A :class:`MetricsRegistry` is a flat namespace of metrics, one registry
per mounted filesystem instance (so a remount starts from zero — DRAM
observability state, like NOVA's in-memory trees, is rebuilt rather than
persisted).  All time-valued metrics record **simulated** nanoseconds
from :mod:`repro.pm.clock`, never wall time: the reproduction's claims
(Eq. 1-5, Fig. 10) are about modelled cost, and wall-clock samples of
the simulator itself would measure the wrong system.

Naming convention (enforced for counters, documented for the rest in
``docs/OBSERVABILITY.md``)::

    <component>.<name>_<unit>

* counters end in ``_total`` (``fs.writes_total``,
  ``fs.overwrite_pages_total``);
* histograms carry their unit as the suffix (``dwq.residency_ns``,
  ``fact.lookup_steps``);
* gauges name the quantity directly (``dwq.depth``,
  ``alloc.free_pages``).

Counters and gauges may be *callback-backed* (``counter_fn`` /
``gauge_fn``): the value is read from a closure at export time instead
of being pushed on every event, which keeps hot paths untouched for
quantities another structure already tracks (allocator free lists, the
DES engine's event count).
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from functools import lru_cache
from typing import Callable, Iterable, Optional, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS_NS",
    "percentiles_from_buckets",
    "series_key",
    "split_series",
    "escape_label_value",
]

_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Geometric latency buckets, 100 ns .. 10 s of simulated time — wide
#: enough for a single DRAM touch and for a delayed(750 ms, m) DWQ wait.
DEFAULT_LATENCY_BUCKETS_NS: tuple[float, ...] = (
    100, 250, 500,
    1e3, 2.5e3, 5e3, 1e4, 2.5e4, 5e4, 1e5, 2.5e5, 5e5,
    1e6, 2.5e6, 5e6, 1e7, 2.5e7, 5e7, 1e8, 2.5e8, 5e8,
    1e9, 2.5e9, 5e9, 1e10,
)


# Every filesystem instance registers the same few dozen names, so a
# name (and a bucket layout) is validated once per distinct value:
# ``lru_cache`` remembers returns, never raises, so an invalid one is
# rejected every time.  Bounded because label values are caller-chosen.
_memo = lru_cache(maxsize=4096)


@_memo
def _check_name(name: str) -> str:
    base = name.split("{", 1)[0]
    if not _NAME_RE.match(base):
        raise ValueError(
            f"metric name {base!r} violates the <component>.<name>_<unit> "
            "convention (lowercase, dotted, e.g. 'fs.writes_total')")
    return name


@_memo
def _check_counter_name(name: str) -> str:
    base = name.split("{", 1)[0]
    if not base.rsplit(".", 1)[-1].endswith("_total"):
        raise ValueError(
            f"counter {base!r} must end in '_total' "
            "(see docs/OBSERVABILITY.md)")
    return name


@_memo
def _check_buckets(name: str, buckets: tuple[float, ...]) -> tuple:
    bounds = tuple(sorted(buckets))
    if not bounds:
        raise ValueError(f"histogram {name}: empty bucket list")
    if any(b <= a for a, b in zip(bounds, bounds[1:])):
        raise ValueError(f"histogram {name}: duplicate bucket bounds")
    return bounds


# Validated once, here: most histograms (every span's) take the default
# layout, and they share this one tuple instead of hashing 25 bounds
# through the memo at each registration.
_DEFAULT_BOUNDS = _check_buckets("default", DEFAULT_LATENCY_BUCKETS_NS)


def _bounds(name: str, buckets: Optional[Sequence[float]]) -> tuple:
    """The sorted bounds of a histogram asked for ``buckets``."""
    if buckets is None or buckets is DEFAULT_LATENCY_BUCKETS_NS:
        return _DEFAULT_BOUNDS
    return _check_buckets(name, tuple(buckets))


def escape_label_value(s: str) -> str:
    """Escape a label value per the Prometheus text exposition format."""
    return (s.replace("\\", "\\\\").replace("\n", "\\n")
            .replace('"', '\\"'))


def series_key(name: str, labels: Optional[dict] = None) -> str:
    """Canonical storage key for one labeled series.

    ``series_key("fs.writes_total", {"tenant": "a"})`` is
    ``fs.writes_total{tenant="a"}`` — label keys sorted, values escaped
    exactly as the Prometheus text format requires, so the snapshot key
    doubles as the sample's label suffix at export time.  With no labels
    the key is the bare name, keeping every pre-label snapshot stable.
    """
    if not labels:
        return name
    for k in labels:
        if not _LABEL_NAME_RE.match(k):
            raise ValueError(f"label name {k!r} is not a valid "
                             "Prometheus label name")
    body = ",".join(f'{k}="{escape_label_value(str(labels[k]))}"'
                    for k in sorted(labels))
    return f"{name}{{{body}}}"


def split_series(key: str) -> tuple[str, str]:
    """Split a series key into ``(base_name, label_suffix)``.

    The suffix includes the braces (``'{tenant="a"}'``) or is ``""`` for
    an unlabeled series, so exporters can append it verbatim.
    """
    i = key.find("{")
    if i < 0:
        return key, ""
    return key[:i], key[i:]


class Counter:
    """A monotonically increasing count (or a callback-read one)."""

    __slots__ = ("name", "help", "_value", "_fn")

    def __init__(self, name: str, help: str = "",
                 fn: Optional[Callable[[], float]] = None):
        self.name = _check_counter_name(name)
        self.help = help
        self._value = 0
        self._fn = fn

    @property
    def value(self) -> float:
        return self._fn() if self._fn is not None else self._value

    def inc(self, n: float = 1) -> None:
        if self._fn is not None:
            raise TypeError(f"counter {self.name} is callback-backed")
        if n < 0:
            raise ValueError(f"counter {self.name}: negative increment {n}")
        self._value += n

    def reset(self) -> None:
        if self._fn is None:
            self._value = 0


class Gauge:
    """A value that can go up and down (or a callback-read one)."""

    __slots__ = ("name", "help", "_value", "_fn")

    def __init__(self, name: str, help: str = "",
                 fn: Optional[Callable[[], float]] = None):
        self.name = name
        self.help = help
        self._value = 0.0
        self._fn = fn

    @property
    def value(self) -> float:
        return self._fn() if self._fn is not None else self._value

    def set(self, value: float) -> None:
        if self._fn is not None:
            raise TypeError(f"gauge {self.name} is callback-backed")
        self._value = value

    def inc(self, n: float = 1) -> None:
        self.set(self._value + n)

    def reset(self) -> None:
        if self._fn is None:
            self._value = 0.0


class Histogram:
    """Fixed-bucket distribution with interpolated percentiles.

    Memory is bounded by the bucket count (the reason it can stay
    always-on for per-op latencies): per observation only one bucket
    counter plus sum/min/max move.  Percentiles are estimated by linear
    interpolation inside the covering bucket, clamped to the observed
    min/max — exact at bucket boundaries, and exact overall whenever
    samples fill buckets uniformly.
    """

    __slots__ = ("name", "help", "bounds", "counts", "count", "sum",
                 "min", "max")

    def __init__(self, name: str, buckets: Sequence[float] = None,
                 help: str = ""):
        self.name = name
        self.help = help
        self.bounds = bounds = _bounds(name, buckets)
        self.counts = [0] * (len(bounds) + 1)   # +1 = overflow bucket
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    @property
    def value(self) -> float:
        return self.count

    def observe(self, v: float) -> None:
        self.counts[bisect_left(self.bounds, v)] += 1
        self.count += 1
        self.sum += v
        if v < self.min:
            self.min = v
        if v > self.max:
            self.max = v

    def percentile(self, q: float) -> float:
        return percentiles_from_buckets(
            self.bounds, self.counts, self.count, self.min, self.max,
            (q,))[0]

    def reset(self) -> None:
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def snapshot(self) -> dict:
        """JSON-able summary (the stable ``repro.metrics/1`` shape)."""
        ps = percentiles_from_buckets(self.bounds, self.counts, self.count,
                                      self.min, self.max, (0.5, 0.95, 0.99))
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "p50": ps[0], "p95": ps[1], "p99": ps[2],
            # None stands for the +Inf overflow bucket (JSON has no Inf).
            "buckets": [[b, c] for b, c in
                        zip(list(self.bounds) + [None], self.counts)],
        }


def percentiles_from_buckets(bounds: Sequence[Optional[float]],
                             counts: Sequence[int], count: int,
                             mn: float, mx: float,
                             qs: Iterable[float]) -> list[float]:
    """Interpolated percentiles from per-bucket (non-cumulative) counts.

    Shared by live histograms and by merged JSON snapshots (whose
    overflow bound arrives as ``None``).
    """
    out = []
    for q in qs:
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        if count <= 0:
            out.append(0.0)
            continue
        target = q * count
        cum = 0.0
        val = mx
        for i, c in enumerate(counts):
            if c and cum + c >= target:
                lo = bounds[i - 1] if i > 0 else mn
                hi = bounds[i] if i < len(bounds) and bounds[i] is not None \
                    else mx
                lo = max(lo, mn)
                hi = min(hi, mx) if hi is not None else mx
                if hi < lo:
                    hi = lo
                frac = max(0.0, (target - cum)) / c
                val = lo + (hi - lo) * frac
                break
            cum += c
        out.append(float(min(max(val, mn), mx)))
    return out


class MetricsRegistry:
    """Flat name -> metric namespace with get-or-create accessors.

    Every filesystem instance registers a few dozen metrics into a fresh
    registry, so an accessor is one dict probe; a name is validated (and
    a label set rendered) only on the way to a new metric.
    """

    def __init__(self):
        self._metrics: dict[str, object] = {}

    # ------------------------------------------------------------ accessors

    def _get_or_create(self, cls, key: str, help: str, *args):
        """The ``cls`` stored under ``key``, or a new
        ``cls(key, *args, help=help)`` stored there."""
        m = self._metrics.get(key)
        if m is None:
            m = self._metrics[key] = cls(_check_name(key), *args, help=help)
        elif not isinstance(m, cls):
            raise ValueError(
                f"metric {key!r} already registered as "
                f"{type(m).__name__}, not {cls.__name__}")
        return m

    def _callback(self, cls, key: str, fn: Callable[[], float], help: str):
        """Register (or re-point) a callback-backed ``cls``."""
        m = self._metrics.get(key)
        if m is None:
            m = self._metrics[key] = cls(_check_name(key), help, fn)
        elif not isinstance(m, cls) or m._fn is None:
            raise ValueError(f"{key!r} exists and is not a callback "
                             f"{cls.__name__.lower()}")
        else:
            m._fn = fn
        return m

    def counter(self, name: str, help: str = "",
                labels: Optional[dict] = None) -> Counter:
        key = series_key(name, labels) if labels else name
        return self._get_or_create(Counter, key, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(self, name: str, buckets: Sequence[float] = None,
                  help: str = "",
                  labels: Optional[dict] = None) -> Histogram:
        key = series_key(name, labels) if labels else name
        m = self._get_or_create(Histogram, key, help, buckets)
        if buckets is not None and m.bounds != _bounds(key, buckets):
            # Get-or-create must not silently keep the first layout — the
            # caller would believe their buckets took effect (mirrors the
            # counter/gauge type-mismatch errors).
            raise ValueError(
                f"histogram {key!r} already registered with buckets "
                f"{m.bounds}; pass the same buckets (or none)")
        return m

    def counter_fn(self, name: str, fn: Callable[[], float],
                   help: str = "") -> Counter:
        """Register (or re-point) a callback-backed counter.

        Re-pointing matters for structures that are *rebuilt* during
        recovery (the page allocator): the metric survives, the closure
        is swapped to read the new instance.
        """
        return self._callback(Counter, name, fn, help)

    def gauge_fn(self, name: str, fn: Callable[[], float],
                 help: str = "",
                 labels: Optional[dict] = None) -> Gauge:
        key = series_key(name, labels) if labels else name
        return self._callback(Gauge, key, fn, help)

    # ------------------------------------------------------------ queries

    def get(self, name: str):
        return self._metrics.get(name)

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __iter__(self):
        return iter(sorted(self._metrics.items()))

    def __len__(self) -> int:
        return len(self._metrics)

    def reset(self) -> None:
        """Zero every stored metric (callback-backed ones are live)."""
        for m in self._metrics.values():
            m.reset()

    # ------------------------------------------------------------ snapshot

    def snapshot(self) -> dict:
        """The stable machine-readable shape (``repro.metrics/1``)."""
        counters, gauges, histograms = {}, {}, {}
        for name, m in self:
            if isinstance(m, Counter):
                counters[name] = m.value
            elif isinstance(m, Gauge):
                gauges[name] = m.value
            elif isinstance(m, Histogram):
                histograms[name] = m.snapshot()
        return {"schema": "repro.metrics/1", "counters": counters,
                "gauges": gauges, "histograms": histograms}
