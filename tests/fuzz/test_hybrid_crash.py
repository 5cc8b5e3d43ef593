"""Crash sweeps over the hybrid pipeline's new persistence events.

The hybrid path adds three kinds of persisted state on top of classic
DeNova: weak-fingerprint column commits in the FACT region, the packed
per-shard policy-mode word in the superblock, and the deferred strong
confirmation's lazy FACT materialization.  The injector counts *every*
persistence event, so sweeping a hybrid scenario tears each of them at
pre- and post-commit points; these tests pin the recovery guarantees:

* contents always read back from a legitimate commit point;
* a torn policy transition recovers to the old or the new mode word,
  never garbage (the word is one atomic store);
* after recovery + drain + settle, the FACT covers every live block
  (RFC never undercounts) and no entry stays ``in_process``.

The ``fuzz``-marked campaign at the bottom is the CI fuzz-smoke entry
(``repro fuzz --dedup-mode hybrid``); the regression class pins the
campaign coordinates that first exercised the hybrid event sweep.
"""

import pytest

from repro.dedup.hybrid import (MODE_INLINE, MODE_OFF, HybridDeNovaFS)
from repro.failure import check_fs_invariants, sweep_crash_points
from repro.fuzz.diff import FuzzConfig, flags_converged, run_case
from repro.fuzz.gen import generate_sequence
from repro.fuzz.runner import FuzzRunner
from repro.nova import PAGE_SIZE
from repro.pm import DRAM, PMDevice, SimClock

pytestmark = pytest.mark.hybrid


def page_of(tag: int) -> bytes:
    return bytes([tag & 0xFF]) * PAGE_SIZE


def _mkfs(pages=1024, inodes=64, cpus=2):
    dev = PMDevice(pages * PAGE_SIZE, model=DRAM, clock=SimClock())
    return dev, HybridDeNovaFS.mkfs(dev, max_inodes=inodes, cpus=cpus)


def hybrid_check(expected: dict):
    """Recovery oracle: contents, invariants, convergence, full FACT."""

    def check(dev, point, phase):
        fs = HybridDeNovaFS.mount(dev)
        check_fs_invariants(fs)
        for path, contents in expected.items():
            if not fs.exists(path):
                continue
            ino = fs.lookup(path)
            size = fs.stat(ino).size
            got = fs.read(ino, 0, size)
            assert any(got == c[:size] and size in (0, len(c))
                       for c in contents), \
                f"{path}: recovered content matches no commit point"
        fs.daemon.drain()
        fs.settle_weak()
        check_fs_invariants(fs)
        assert flags_converged(fs), \
            "in_process entries survive recovery + drain"
        # Post-settle the FACT must account for every live reference.
        st = fs.space_stats()
        assert st["unfingerprinted_pages"] == 0
        assert st["rfc_sum"] == st["logical_pages"]

    return check


class TestWeakCommitTorn:
    """Tear the weak-column stores and inline flag-complete stores."""

    @pytest.mark.parametrize("mode", ["discard", "torn"])
    def test_sweep_inline_classification(self, mode):
        def build():
            dev, fs = _mkfs()
            a = fs.create("/a")
            b = fs.create("/b")

            def scenario():
                # Unique pages weak-register + flag-complete inline (no
                # DWQ node); the duplicate pair defers to the daemon.
                fs.write(a, 0, page_of(1) + page_of(2) + page_of(3))
                fs.write(b, 0, page_of(9) + page_of(1) + page_of(2))
                fs.daemon.drain()
                fs.unmount()

            return dev, scenario

        expected = {
            "/a": [page_of(1) + page_of(2) + page_of(3)],
            "/b": [page_of(9) + page_of(1) + page_of(2)],
        }
        assert sweep_crash_points(build, hybrid_check(expected),
                                  mode=mode, stride=3) > 5


class TestModeRecordTorn:
    """Tear the persisted policy-transition record."""

    def test_sweep_across_transition(self):
        def build():
            dev, fs = _mkfs()
            a = fs.create("/a")
            b = fs.create("/b")
            fs.write(a, 0, page_of(4) + page_of(5))

            def scenario():
                fs.daemon.drain()
                fs.force_mode(MODE_OFF)       # persisted transitions
                fs.write(b, 0, page_of(4))    # off: flagged complete
                fs.unmount()

            return dev, scenario

        def check(dev, point, phase):
            fs = HybridDeNovaFS.mount(dev)
            # The word is a single atomic store: every shard recovers
            # to a mode some commit point actually held, never garbage.
            for s in range(fs.controller.nshards):
                assert fs.controller.mode(s) in (MODE_INLINE, MODE_OFF)
            check_fs_invariants(fs)
            fs.daemon.drain()
            fs.settle_weak()
            check_fs_invariants(fs)
            st = fs.space_stats()
            assert st["rfc_sum"] == st["logical_pages"]

        assert sweep_crash_points(build, check) > 5


class TestDeferredConfirmationTorn:
    """Tear the lazy FACT insert between weak hit and strong commit."""

    @pytest.mark.parametrize("mode", ["discard", "torn"])
    def test_sweep_duplicate_confirmation(self, mode):
        def build():
            dev, fs = _mkfs()
            inos = [fs.create(f"/f{i}") for i in range(4)]
            # Every file repeats the same two pages: each daemon node
            # after the first resolves via weak hit -> candidate read ->
            # strong confirm -> staged UC -> commit, and the sweep
            # crashes inside every step of that chain.
            for ino in inos:
                fs.write(ino, 0, page_of(7) + page_of(8))

            def scenario():
                fs.daemon.drain()
                fs.unmount()

            return dev, scenario

        expected = {f"/f{i}": [page_of(7) + page_of(8)] for i in range(4)}
        assert sweep_crash_points(build, hybrid_check(expected),
                                  mode=mode, stride=2) > 5


class TestDifferentialHybrid:
    """The differential engine end-to-end in hybrid mode."""

    def test_generated_sequences_clean(self):
        for stream in range(3):
            ops = generate_sequence(seed=7, stream=stream, nops=40)
            res = run_case(ops, FuzzConfig(seed=7, budget=8,
                                           dedup_mode="hybrid"))
            assert res.ok, [str(v) for v in res.violations]
            assert res.crash_points > 0

    def test_mode_matches_classic_verdict(self):
        """Hybrid and classic pipelines judge the same sequence clean."""
        ops = generate_sequence(seed=3, stream=0, nops=40)
        for mode in ("delayed", "hybrid"):
            res = run_case(ops, FuzzConfig(seed=3, budget=4,
                                           dedup_mode=mode))
            assert res.ok, (mode, [str(v) for v in res.violations])


class TestRegressions:
    def test_seed7_stream1_hybrid_sweep(self):
        """Corpus pin: first campaign coordinates whose sweep tears the
        full hybrid event set (weak commits, lazy inserts, checkpoint).
        Regenerated deterministically; must stay clean."""
        ops = generate_sequence(seed=7, stream=1, nops=40)
        res = run_case(ops, FuzzConfig(seed=7, budget=8,
                                       dedup_mode="hybrid"))
        assert res.ok, [str(v) for v in res.violations]
        assert res.crash_points == 8    # two points per (mode, phase)


@pytest.mark.fuzz
def test_hybrid_campaign():
    """CI fuzz-smoke: a short hybrid campaign must come back clean."""
    runner = FuzzRunner(FuzzConfig(seed=1, total_ops=240, seq_ops=40,
                                   budget=8, dedup_mode="hybrid"))
    result = runner.run()
    assert result.ok, [str(f.violation) for f in result.failures]
    assert result.crash_points > 0
