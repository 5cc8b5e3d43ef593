"""Tests for statistics helpers and report rendering."""

import numpy as np
import pytest

from repro.analysis import cdf, latency_breakdown, percentile, render_table
from repro.analysis.stats import render_series


class TestCdf:
    def test_cdf_monotone_and_normalized(self):
        xs, ys = cdf([5.0, 1.0, 3.0, 2.0, 4.0])
        assert list(xs) == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert ys[-1] == 1.0
        assert all(np.diff(ys) > 0)

    def test_cdf_empty(self):
        xs, ys = cdf([])
        assert xs.size == 0

    def test_stair_pattern_visible(self):
        """Delayed-mode lingering times cluster at trigger multiples; the
        CDF of clustered data has flat runs (the Fig. 10 stairs)."""
        samples = [250.0] * 50 + [500.0] * 30 + [750.0] * 20
        xs, ys = cdf(samples)
        assert ys[49] == pytest.approx(0.5)
        assert xs[49] == 250.0


class TestPercentile:
    def test_median(self):
        assert percentile([1, 2, 3, 4, 5], 0.5) == 3.0

    def test_p90(self):
        data = list(range(1, 101))
        assert 89 <= percentile(data, 0.9) <= 91

    def test_empty_is_zero(self):
        assert percentile([], 0.9) == 0.0

    def test_bad_q(self):
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)


class TestBreakdown:
    def test_table4_row(self):
        row = latency_breakdown(write_ns=2850, fp_ns=11780,
                                total_dedup_ns=15440)
        assert row.write_us == pytest.approx(2.85)
        assert row.fp_us == pytest.approx(11.78)
        assert row.other_us == pytest.approx(3.66)
        assert row.dedupe_us == pytest.approx(15.44)
        assert 4 <= row.fp_us / row.write_us <= 5

    def test_other_ops_never_negative(self):
        row = latency_breakdown(1000, 5000, 4000)
        assert row.other_us == 0.0


class TestRender:
    def test_table_contains_all_cells(self):
        out = render_table(["name", "value"],
                           [["alpha", 0.5], ["files", 1000000]],
                           title="Demo")
        assert "Demo" in out
        assert "alpha" in out
        assert "0.500" in out
        assert "1,000,000" in out

    def test_table_alignment_consistent(self):
        out = render_table(["a", "b"], [[1, 2], [300, 4000]])
        lines = out.splitlines()
        assert len({len(l) for l in lines}) == 1

    def test_series(self):
        out = render_series("fig", [1, 2], [10.5, 20.25], "x", "MB/s")
        assert "fig" in out and "10.5" in out and "20.25" in out
