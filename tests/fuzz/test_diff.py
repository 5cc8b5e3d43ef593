"""The differential engine: equivalence checking, divergence detection."""

import base64

import pytest

from repro.fuzz.diff import (
    FuzzConfig,
    OracleDivergence,
    apply_op,
    fs_namespace,
    full_equivalence_check,
    make_fs,
    run_case,
)
from repro.fuzz.gen import generate_sequence
from repro.fuzz.model import ModelFS
from repro.pm import PMDevice
from repro.workloads.trace import TraceOp


def wr(path, data, offset=0):
    return TraceOp(op="write", path=path, offset=offset, length=len(data),
                   data_b64=base64.b64encode(data).decode())


CFG = FuzzConfig(seed=0, budget=0)


class TestApplyOp:
    def test_both_accept(self):
        fs, m = make_fs(CFG), ModelFS()
        fs, status = apply_op(fs, m, TraceOp(op="create", path="/a"))
        assert status == "ok"
        assert fs_namespace(fs) == m.namespace()

    def test_both_reject_is_skipped(self):
        fs, m = make_fs(CFG), ModelFS()
        fs, status = apply_op(fs, m, TraceOp(op="unlink", path="/nope"))
        assert status == "skipped"

    def test_one_sided_reject_diverges(self):
        fs, m = make_fs(CFG), ModelFS()
        m.create("/a")  # model ahead of the real fs
        with pytest.raises(OracleDivergence):
            apply_op(fs, m, TraceOp(op="unlink", path="/a"))

    def test_read_content_compared(self):
        fs, m = make_fs(CFG), ModelFS()
        for op in (TraceOp(op="create", path="/a"), wr("/a", b"hello")):
            fs, _ = apply_op(fs, m, op)
        # Skew the model's content; the next read must diverge.
        m._file_node("/a")[1].content[0:1] = b"X"
        with pytest.raises(OracleDivergence):
            apply_op(fs, m, TraceOp(op="read", path="/a", offset=0,
                                    length=5))


class TestNamespaceExtraction:
    def test_matches_model_after_generated_sequence(self):
        ops = generate_sequence(seed=11, stream=0, nops=80)
        fs, m = make_fs(CFG), ModelFS()
        for op in ops:
            fs, status = apply_op(fs, m, op)
            if status == "stop":
                break
        assert fs_namespace(fs) == m.namespace()


class TestFullEquivalence:
    def test_clean_sequence_passes(self):
        fs, m = make_fs(CFG), ModelFS()
        page = b"\x05" * 4096
        for op in (TraceOp(op="create", path="/a"), wr("/a", page + page),
                   TraceOp(op="create", path="/b"), wr("/b", page)):
            fs, _ = apply_op(fs, m, op)
        fs.daemon.drain()
        full_equivalence_check(fs, m)

    def test_content_mismatch_detected(self):
        fs, m = make_fs(CFG), ModelFS()
        for op in (TraceOp(op="create", path="/a"), wr("/a", b"abc")):
            fs, _ = apply_op(fs, m, op)
        m._file_node("/a")[1].content[0:1] = b"Z"
        fs.daemon.drain()
        with pytest.raises(OracleDivergence):
            full_equivalence_check(fs, m)

    def test_missing_path_detected(self):
        fs, m = make_fs(CFG), ModelFS()
        fs, _ = apply_op(fs, m, TraceOp(op="create", path="/a"))
        m.create("/ghost")
        fs.daemon.drain()
        with pytest.raises(OracleDivergence):
            full_equivalence_check(fs, m)

    def test_hardlink_partition_mismatch_detected(self):
        fs, m = make_fs(CFG), ModelFS()
        for op in (TraceOp(op="create", path="/a"),
                   TraceOp(op="link", path="/a", path2="/b")):
            fs, _ = apply_op(fs, m, op)
        # Model thinks /b is an independent file with equal (empty) content.
        m.unlink("/b")
        m.create("/b")
        fs.daemon.drain()
        with pytest.raises(OracleDivergence):
            full_equivalence_check(fs, m)


class TestRunCase:
    def test_clean_case_no_sweep(self):
        ops = generate_sequence(seed=12, stream=0, nops=40)
        res = run_case(ops, CFG)     # CFG's budget is 0: no sweep
        assert res.ok
        assert res.ops_applied + res.ops_skipped == len(ops)
        assert res.crash_points == 0

    def test_sweep_exercises_crash_points(self):
        ops = [TraceOp(op="create", path="/a"), wr("/a", b"\x09" * 8192),
               TraceOp(op="dedup")]
        res = run_case(ops, FuzzConfig(seed=0, budget=4))
        assert res.ok
        assert res.crash_points > 0

    def test_deterministic(self):
        ops = generate_sequence(seed=13, stream=0, nops=30)
        cfg = FuzzConfig(seed=0, budget=4)
        r1, r2 = run_case(ops, cfg), run_case(ops, cfg)
        assert (r1.ops_applied, r1.ops_skipped, r1.crash_points) == \
               (r2.ops_applied, r2.ops_skipped, r2.crash_points)
        assert [str(v) for v in r1.violations] == \
               [str(v) for v in r2.violations]

    @pytest.fixture
    def built(self, monkeypatch):
        """Every device ``run_case`` builds, in order."""
        import repro.fuzz.diff as diff

        devices = []

        def counting_make_fs(cfg):
            fs = make_fs(cfg)
            devices.append(fs.dev)
            return fs

        monkeypatch.setattr(diff, "make_fs", counting_make_fs)
        return devices

    def test_a_clean_case_leaves_no_device_open(self, built, monkeypatch):
        """The clean pass, the sweep's one build (one point per combo: no
        counting pass) and one fork per crash point: each device
        ``run_case`` had made is closed once it has been checked."""
        forks = []
        fork = PMDevice.fork
        monkeypatch.setattr(PMDevice, "fork",
                            lambda dev: forks.append(fork(dev)) or forks[-1])
        ops = generate_sequence(seed=12, stream=0, nops=30)
        res = run_case(ops, FuzzConfig(seed=0, budget=4))
        assert res.ok and res.crash_points > 0
        assert len(built) == 2 and len(forks) == res.crash_points
        for dev in built + forks:
            with pytest.raises(RuntimeError, match="^device is closed$"):
                dev.read_silent(0, 1)

    def test_a_diverging_clean_pass_keeps_its_device(self, built,
                                                     monkeypatch):
        import repro.fuzz.diff as diff

        def diverge(fs, model):
            raise OracleDivergence("toy")

        monkeypatch.setattr(diff, "full_equivalence_check", diverge)
        res = run_case([TraceOp(op="create", path="/a")],
                       FuzzConfig(seed=0, budget=4))
        assert [v.stage for v in res.violations] == ["clean"]
        (dev,) = built
        assert any(dev.read_silent(0, 4096))


class TestSweepCount:
    """``sweep_case`` replays a scenario just to count its persist events
    only when the budget leaves more than one point per (mode, phase)."""

    OPS = generate_sequence(seed=12, stream=0, nops=30)

    @pytest.fixture
    def swept(self, monkeypatch):
        """``(point, phase, mode)`` of every crashed fork, in order."""
        import repro.failure.injector as injector

        log = []
        crash_fork = injector._crash_fork

        def logged(dev, point, phase, mode, seed):
            log.append((point, phase, mode))
            return crash_fork(dev, point, phase, mode, seed)

        monkeypatch.setattr(injector, "_crash_fork", logged)
        return log

    @staticmethod
    def combos(cfg, *points):
        """Event order: each point's pre forks, then its post forks, the
        modes in ``cfg`` order."""
        return [(p, phase, mode) for p in points
                for phase in cfg.phases for mode in cfg.modes]

    @pytest.mark.parametrize("budget", [2, 4])
    def test_one_point_per_combo_is_not_counted(self, monkeypatch, swept,
                                                budget):
        import repro.fuzz.diff as diff

        def refuse(_build):
            raise AssertionError("counted a sweep that sweeps event #1")

        monkeypatch.setattr(diff, "count_persist_events", refuse)
        cfg = FuzzConfig(seed=0, budget=budget)
        res = run_case(self.OPS, cfg)
        assert swept == self.combos(cfg, 1)
        # Pinned while every sweep still counted.
        assert (res.crash_points, res.ops_applied, res.ops_skipped) \
            == (4, 29, 1)
        assert res.violations == []

    def test_two_points_per_combo_count_once(self, monkeypatch, swept):
        import repro.fuzz.diff as diff

        calls = []
        count = diff.count_persist_events

        def counted(build):
            calls.append(build)
            return count(build)

        monkeypatch.setattr(diff, "count_persist_events", counted)
        cfg = FuzzConfig(seed=0, budget=8)
        res = run_case(self.OPS, cfg)
        assert len(calls) == 1
        # 228 events (with the FACT chunk map's first-touch stores, and
        # no in_process store for a dedup target without redirects):
        # stride ceil(228 / 2) = 114.
        assert swept == self.combos(cfg, 1, 115)
        assert (res.crash_points, res.ops_applied, res.ops_skipped) \
            == (8, 29, 1)
        assert res.violations == []

    def test_budget_caps_points_per_combo(self, swept):
        """The budget caps the points: 228 events at stride
        ceil(228 / 4) = 57 are exactly 4 crashes in each (mode, phase)."""
        cfg = FuzzConfig(seed=0, budget=16)
        res = run_case(self.OPS, cfg)
        assert swept == self.combos(cfg, 1, 58, 115, 172)
        assert res.crash_points == 16
        assert res.violations == []


class TestRegressions:
    def test_seed0_stream157_stale_fact_entry(self):
        """First real bug the fuzzer found (10k-op campaign, seed 0).

        dedup of a file with intra-file duplicate pages collapses two
        radix slots onto one canonical block; the overwrite displaced
        that block once instead of twice (``radix._group`` deduplicated
        page numbers), leaving a live FACT entry whose block a clean
        remount then freed and reallocated — two live entries claiming
        one block.  Regenerated deterministically from the campaign
        coordinates; must stay clean.
        """
        ops = generate_sequence(seed=0, stream=157, nops=40)
        res = run_case(ops, FuzzConfig(seed=0, budget=4))
        assert res.ok, [str(v) for v in res.violations]
