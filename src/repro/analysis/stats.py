"""Statistics and plain-text report rendering for the benchmarks.

The benchmark harness prints the paper's tables and figure series as
text (monospace tables and CDF point lists) — the same rows/series the
paper reports, regenerable with ``pytest benchmarks/ --benchmark-only``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = ["cdf", "percentile", "latency_breakdown", "LatencyBreakdown",
           "render_table", "render_series"]


def cdf(samples: Iterable[float]) -> tuple[np.ndarray, np.ndarray]:
    """Empirical CDF: returns (sorted values, cumulative fractions)."""
    xs = np.sort(np.asarray(list(samples), dtype=float))
    if xs.size == 0:
        return xs, xs
    ys = np.arange(1, xs.size + 1) / xs.size
    return xs, ys


def percentile(samples: Iterable[float], q: float) -> float:
    """The q-quantile (0..1) of a sample set; 0.0 when empty."""
    data = np.asarray(list(samples), dtype=float)
    if data.size == 0:
        return 0.0
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be in [0, 1]")
    return float(np.quantile(data, q))


@dataclass(frozen=True)
class LatencyBreakdown:
    """Table IV's decomposition of one file's dedup cost."""

    write_us: float
    fp_us: float
    other_us: float

    @property
    def dedupe_us(self) -> float:
        return self.fp_us + self.other_us


def latency_breakdown(write_ns: float, fp_ns: float,
                      total_dedup_ns: float) -> LatencyBreakdown:
    """Build the Table IV row from raw simulated times."""
    return LatencyBreakdown(
        write_us=write_ns / 1000.0,
        fp_us=fp_ns / 1000.0,
        other_us=max(0.0, (total_dedup_ns - fp_ns)) / 1000.0,
    )


def render_table(headers: Sequence[str], rows: Iterable[Sequence],
                 title: str = "") -> str:
    """Monospace table; numbers get sensible default formatting."""
    def fmt(v) -> str:
        if isinstance(v, bool):
            return str(v)
        if isinstance(v, int):
            return f"{v:,}" if abs(v) >= 1000 else str(v)
        if isinstance(v, float):
            if v == 0:
                return "0"
            if abs(v) >= 1000:
                return f"{v:,.0f}"
            if abs(v) >= 10:
                return f"{v:.1f}"
            return f"{v:.3f}"
        return str(v)

    str_rows = [[fmt(v) for v in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in str_rows)) if str_rows else len(h)
        for i, h in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_series(name: str, xs: Sequence, ys: Sequence,
                  xlabel: str = "x", ylabel: str = "y") -> str:
    """A figure series as aligned (x, y) text pairs."""
    lines = [f"{name}  [{xlabel} -> {ylabel}]"]
    for x, y in zip(xs, ys):
        xs_ = f"{x:g}" if isinstance(x, (int, float)) else str(x)
        ys_ = f"{y:g}" if isinstance(y, (int, float)) else str(y)
        lines.append(f"  {xs_:>12}  {ys_}")
    return "\n".join(lines)
