"""Fuzz integration: relocate/restore ops in the differential harness,
plus the dedicated recv-cursor + relocation-journal crash sweep."""

import pytest

from repro.fuzz import FuzzConfig, run_case, run_repl_case
from repro.fuzz.gen import generate_sequence
from tests.repl.util import repl_gen_config

pytestmark = pytest.mark.repl


class TestDifferentialOps:
    def test_generator_emits_relocate_and_restore(self):
        cfg = repl_gen_config()
        assert cfg.weights["relocate"] > 0 and cfg.weights["restore"] > 0
        kinds = set()
        for seed in range(12):
            for op in generate_sequence(seed, stream=0, nops=40, cfg=cfg):
                kinds.add(op.op)
        assert {"snapshot", "relocate", "restore"} <= kinds

    def test_default_weights_leave_repl_ops_off(self):
        from repro.fuzz.gen import GenConfig
        cfg = GenConfig()
        assert cfg.weights["relocate"] == 0
        assert cfg.weights["restore"] == 0

    def test_run_case_hosts_relocate_restore(self):
        """Seed 7 generates snapshot + relocate + restore; the model
        oracle (which no-ops them) must stay exact through the clean
        pass and the crash sweep."""
        cfg = FuzzConfig(seed=7, seq_ops=40, budget=4, pages=4096)
        ops = generate_sequence(7, stream=0, nops=40,
                                cfg=repl_gen_config(cfg.alpha))
        assert any(op.op == "relocate" for op in ops)
        res = run_case(ops, cfg)
        assert res.ok, res.violations


class TestReplSweep:
    def test_recv_and_relocation_crash_sweep(self):
        """Tear the full pipeline (recv s1, recv s2, relocate, restore)
        at sampled persistence events in both phases and both modes;
        every recovery must be clean and completable."""
        res = run_repl_case(FuzzConfig(seed=3, seq_ops=24, budget=8,
                                       pages=4096))
        assert res.ok, res.violations
        assert res.crash_points > 0
        assert res.snapshots == ("fz1", "fz2")
