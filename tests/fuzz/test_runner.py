"""The campaign driver: metrics, corpus persistence, smoke campaigns."""

import pytest

from repro.fuzz.diff import FuzzConfig
from repro.fuzz.gen import GenConfig
from repro.fuzz.runner import FuzzRunner
from repro.obs import format_table, to_prometheus
from repro.workloads.trace import Trace
from tests._seams import overriding


def small_cfg(**kw):
    base = dict(seed=0, total_ops=80, seq_ops=20, budget=2)
    base.update(kw)
    return FuzzConfig(**base)


def test_campaign_smoke_clean():
    r = FuzzRunner(small_cfg())
    res = r.run()
    assert res.ok
    assert res.sequences == 4
    assert res.ops_applied > 0
    assert res.crash_points > 0


def test_metrics_populated():
    r = FuzzRunner(small_cfg(total_ops=40, seq_ops=20))
    r.run()
    snap = r.registry.snapshot()
    assert snap["counters"]["fuzz.sequences_total"] == 2
    assert snap["counters"]["fuzz.violations_total"] == 0
    assert snap["counters"]["fuzz.crash_points_total"] > 0
    assert snap["histograms"]["fuzz.case_seconds"]["count"] == 2
    # Both export formats accept the snapshot.
    assert "fuzz.sequences_total" in format_table(snap)
    assert "fuzz_sequences_total" in to_prometheus(snap)


def test_campaign_deterministic():
    res1 = FuzzRunner(small_cfg()).run()
    res2 = FuzzRunner(small_cfg()).run()
    assert (res1.sequences, res1.ops_applied, res1.ops_skipped,
            res1.crash_points) == \
           (res2.sequences, res2.ops_applied, res2.ops_skipped,
            res2.crash_points)


def test_corpus_replay_of_clean_trace(tmp_path):
    # A saved trace replays through the corpus path without violations.
    from repro.fuzz.gen import generate_sequence

    corpus = tmp_path / "corpus"
    corpus.mkdir()
    ops = generate_sequence(seed=5, stream=0, nops=15)
    Trace(ops=list(ops)).save(corpus / "seed5.trace")
    r = FuzzRunner(small_cfg(corpus=str(corpus), budget=2))
    res = r.replay_corpus()
    assert res.ok
    assert res.sequences == 1
    assert res.ops_generated == 15


def test_replay_corpus_missing_dir_is_empty():
    r = FuzzRunner(small_cfg(corpus="/nonexistent/nowhere"))
    res = r.replay_corpus()
    assert res.sequences == 0 and res.ok


@pytest.mark.fuzz
def test_fuzz_smoke_campaign():
    """The CI fuzz-smoke tier: a fixed-seed campaign must come back clean."""
    cfg = FuzzConfig(seed=0, total_ops=1200, seq_ops=40, budget=8)
    r = FuzzRunner(cfg, gen_cfg=GenConfig(alpha=0.55))
    res = r.run()
    assert res.ok, "; ".join(str(f.violation) for f in res.failures)
    assert res.sequences == 30
    assert res.crash_points > 100


@pytest.mark.fuzz
@pytest.mark.parametrize("dedup_mode", ["delayed", "hybrid", "inline"])
def test_small_device_campaign_is_clean(dedup_mode):
    """Exhaustion as a fuzz input: a 96-page device and a reflink-heavy
    mix run the sequence into ``NoSpace`` ~100 ops in.  Every op owes its
    caller a rolled-back rejection, so the clean pass must reach the
    stop with the invariants intact (ISSUE 18: a refused reflink used to
    leave its staged UCs — ``FACT[48]: UC=1`` at op 108 of this seed).

    Snapshot weights are zero on purpose: a snapshot that runs out of
    space half-way leaves the documented partial (deletable) snapshot
    directory, which the model FS does not predict.
    """
    weights = GenConfig().weights | {
        "snapshot": 0, "snap_delete": 0, "reflink": 14, "unlink": 3,
        "truncate": 2}
    gen = overriding(GenConfig, file_names=40)(
        weights=weights, max_data_pages=4000, max_nodes=180)
    cfg = FuzzConfig(seed=3, pages=96, seq_ops=300, total_ops=300, budget=4,
                     dedup_mode=dedup_mode)
    res = FuzzRunner(cfg, gen_cfg=gen, shrink_failures=False).run()
    assert res.ok, "; ".join(str(f.violation.detail) for f in res.failures)
    # The clean pass stopped on NoSpace before the sequence ended.
    assert res.ops_applied + res.ops_skipped < res.ops_generated
