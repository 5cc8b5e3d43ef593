"""Eq. 1-5 (§III): the inline-dedup impossibility argument, checked.

Evaluates the closed-form model over a duplicate-ratio grid and verifies
each inequality both analytically and against the simulator's measured
write paths (the model and simulator share one cost model, so this is a
consistency check, not a tautology — the simulator adds everything the
model's T_a glosses over).
"""

import numpy as np
from _common import emit

from repro.analysis import InlineModel, render_table
from repro.core import Config, Variant, make_fs
from repro.nova import PAGE_SIZE

ALPHAS = [0.0, 0.25, 0.5, 0.75, 0.9]


def measured_write_ns(variant: Variant, alpha: float, nfiles: int = 40
                      ) -> float:
    """Mean per-write simulated cost on pre-created files."""
    from repro.workloads import DataGenerator

    fs, _ = make_fs(variant, Config(device_pages=2048, max_inodes=256))
    gen = DataGenerator(alpha, seed=3)
    inos = [fs.create(f"/f{i}") for i in range(nfiles)]
    t0 = fs.clock.now_ns
    for ino in inos:
        fs.write(ino, 0, gen.file_data(PAGE_SIZE))
    return (fs.clock.now_ns - t0) / nfiles


def test_eq_model_inequalities():
    model = InlineModel()
    rows = [{"alpha": alpha,
             "baseline_ns": model.baseline_write_time(4096),
             "inline_ns": model.inline_write_time(4096, alpha),
             "adaptive_ns": model.adaptive_write_time(4096, alpha),
             "eq3_holds": model.eq3_holds(4096, alpha),
             "eq5_holds": model.eq5_holds(4096, alpha)}
            for alpha in ALPHAS]
    emit("eq_model", {"rows": rows}, render_table(
        ["alpha", "baseline us", "inline us (Eq.2)",
         "adaptive us (Eq.4)", "Eq.3 holds", "Eq.5 holds"],
        [[r["alpha"], round(r["baseline_ns"] / 1000, 2),
          round(r["inline_ns"] / 1000, 2),
          round(r["adaptive_ns"] / 1000, 2), r["eq3_holds"],
          r["eq5_holds"]] for r in rows],
        title="Eq. 1-5: inline dedup cannot beat the baseline on Optane",
    ))
    for r in rows:
        assert r["eq3_holds"] and r["eq5_holds"]
        assert r["inline_ns"] > r["baseline_ns"]
        assert r["adaptive_ns"] > r["baseline_ns"]


def test_model_matches_simulator():
    """The measured write paths respect the same ordering as the model,
    at every duplicate ratio."""
    for alpha in (0.0, 0.5, 0.9):
        base = measured_write_ns(Variant.BASELINE, alpha)
        inline = measured_write_ns(Variant.INLINE, alpha)
        adaptive = measured_write_ns(Variant.INLINE_ADAPTIVE, alpha)
        offline = measured_write_ns(Variant.IMMEDIATE, alpha)
        assert inline > 1.5 * base, f"alpha={alpha}"
        assert adaptive > base, f"alpha={alpha}"
        assert offline < 1.05 * base, f"alpha={alpha}"
        # NVDedup's scheme does help inline — just not enough to win.
        if alpha < 0.4:
            assert adaptive < inline


def test_simulated_inline_slowdown_tracks_model():
    model = InlineModel()
    predicted = model.inline_slowdown(4096, 0.5)
    base = measured_write_ns(Variant.BASELINE, 0.5)
    inline = measured_write_ns(Variant.INLINE, 0.5)
    measured = inline / base
    # Within a factor-ish band: the simulator adds entry/flush costs the
    # closed form folds into T_a.
    assert 0.5 * predicted <= measured <= 2.0 * predicted
