"""Fig. 2: fingerprinting time (T_f) vs device write time (T_w) by size.

The paper's observation: at every write size, T_w never exceeds T_f on
Optane DC PM.  We measure both in the simulator (actual SHA-1 pipeline
vs actual device write, simulated time) and print the proportion split
the figure shows, next to the closed-form model.
"""

from _common import emit

from repro.analysis import InlineModel, render_table
from repro.dedup.fingerprint import Fingerprinter, chunk_pages
from repro.pm import OPTANE_DCPM, PMDevice, SimClock

SIZES = [4096, 16384, 65536, 262144, 1 << 20]


def measure(size: int) -> tuple[float, float]:
    """Measured (T_w, T_f) in simulated ns for one write of ``size``."""
    dev = PMDevice(4 << 20, model=OPTANE_DCPM, clock=SimClock())
    data = bytes(range(256)) * (size // 256)
    t0 = dev.clock.now_ns
    dev.write(0, data, nt=True)
    dev.sfence()
    t_w = dev.clock.now_ns - t0

    fp = Fingerprinter(OPTANE_DCPM.cpu, dev.clock)
    t1 = dev.clock.now_ns
    for chunk in chunk_pages(dev.read(0, size)):
        fp.strong(chunk)
    t_f = dev.clock.now_ns - t1
    return t_w, t_f


def test_fig2_tf_dominates_tw():
    model = InlineModel()
    rows = []
    for size in SIZES:
        t_w, t_f = measure(size)
        rows.append({"size": size, "t_w_ns": t_w, "t_f_ns": t_f,
                     "model_t_w_ns": model.t_w(size),
                     "model_t_f_ns": model.t_f(size)})
    emit("fig2_tf_vs_tw", {"rows": rows}, render_table(
        ["write size", "T_w us (meas)", "T_f us (meas)", "T_f share",
         "T_w us (model)", "T_f us (model)"],
        [[f"{r['size'] // 1024} KB", round(r["t_w_ns"] / 1000, 2),
          round(r["t_f_ns"] / 1000, 2),
          f"{r['t_f_ns'] / (r['t_f_ns'] + r['t_w_ns']):.0%}",
          round(r["model_t_w_ns"] / 1000, 2),
          round(r["model_t_f_ns"] / 1000, 2)] for r in rows],
        title="Fig. 2: fingerprint vs write time on emulated Optane DC PM",
    ))
    # The paper's claim: T_w never exceeds T_f, at any write size.
    for r in rows:
        assert r["t_f_ns"] > r["t_w_ns"], f"T_f must dominate at {r['size']}"
        # Fingerprinting is the bulk of the pipeline.
        assert r["t_f_ns"] / (r["t_f_ns"] + r["t_w_ns"]) >= 0.6


def test_fig2_table4_consistency():
    """The 4 KB measurement must sit in Table IV's regime (~11.8 us FP)."""
    _t_w, t_f = measure(4096)
    assert 10_000 <= t_f <= 16_000
