"""Schedule-permutation determinism for the hybrid dedup pipeline.

Three claims, each load-bearing for trusting an *adaptive* policy:

* the final logical filesystem state is identical across seeded
  interleavings and dedup worker-pool sizes — mode switching and weak
  pre-filtering are as unobservable as the classic daemon;
* a fixed (seed, workers) run is byte-reproducible, and ``workers=1``
  byte-identically reproduces the single-daemon execution on repeat;
* controller decisions are a pure function of the observed
  (alpha, depth, contention) window history: replaying the decision
  log through a fresh controller yields the same transitions.
"""

import hashlib

import pytest

from repro.conc import fs_state_digest
from repro.conc.vfs import WAIT_BUCKETS_NS
from repro.core import Config, Variant, make_fs
from repro.dedup.hybrid import (MODE_INLINE, MODE_OFF, HybridDeNovaFS,
                                HybridPolicy)
from repro.failure import check_fs_invariants
from repro.nova import PAGE_SIZE
from repro.nova.layout import Superblock
from repro.workloads import small_file_job
from repro.workloads.datagen import DataGenerator
from tests.conc.permutations import run_permutations, run_workload

pytestmark = [pytest.mark.conc, pytest.mark.hybrid]

SEEDS = [1, 2, 3, 4, 5, 6]


def build():
    return make_fs(Variant.HYBRID,
                   Config(device_pages=4096, max_inodes=256, cpus=4))


def mixed_client(vfs, tid, nfiles=6, dup_ratio=0.6):
    """Create, write duplicate-heavy data, read back, overwrite one."""
    fs = vfs.fs
    holder = f"client-{tid}"
    gen = DataGenerator(dup_ratio, seed=77, stream=tid)

    def body():
        yield from vfs.op(lambda: fs.mkdir(f"/p{tid}"), holder,
                          ns_mode="w")
        inos = []
        for i in range(nfiles):
            data = gen.file_data(PAGE_SIZE)
            ino, _ = yield from vfs.op(
                lambda p=f"/p{tid}/f{i}": fs.create(p), holder, ns_mode="w")
            inos.append(ino)
            yield from vfs.write(
                lambda ino=ino, d=data: fs.write(ino, 0, d, cpu=tid),
                holder, ino)
        for ino in inos:
            yield from vfs.op(
                lambda ino=ino: fs.read(ino, 0, PAGE_SIZE, cpu=tid),
                holder, ino=ino, ino_mode="r")
        redo = gen.file_data(PAGE_SIZE)
        yield from vfs.write(
            lambda: fs.write(inos[0], 0, redo, cpu=tid), holder, inos[0])

    return body()


def _run(workers: int, jitter: int):
    """One concurrent hybrid workload; returns the drained filesystem."""
    cfg = Config(device_pages=4096, max_inodes=256, cpus=4)
    fs, dd = make_fs(Variant.HYBRID, cfg)
    spec = small_file_job(nfiles=48, dup_ratio=0.5, threads=4, seed=9)
    run_workload(fs, spec, dd=dd, workers=workers, jitter_seed=jitter)
    fs.daemon.drain()
    return fs


def _image(fs) -> bytes:
    return fs.dev.read_silent(0, fs.dev.size)


class TestScheduleInvariance:
    def test_final_state_identical_across_interleavings(self):
        report = run_permutations(
            build, mixed_client, clients=3, seeds=SEEDS, workers=2,
            jitter_ns=4000.0,
            check=lambda fs: check_fs_invariants(fs))
        assert len(report.digests) == len(SEEDS) >= 5
        report.assert_deterministic()
        assert len(set(report.total_ns)) > 1   # schedules really differed
        assert all(n > 0 for n in report.worker_nodes)

    def test_final_state_identical_across_worker_counts(self):
        digests, reports = [], []
        for workers in (1, 2, 4):
            fs = _run(workers, jitter=5)
            digests.append(fs_state_digest(fs))
            check_fs_invariants(fs)
            fs.unmount()
            rec = HybridDeNovaFS.mount(fs.dev)
            rep = rec.last_recovery
            reports.append((rep.clean, rep.inodes_recovered,
                            rep.orphans_collected))
            digests.append(fs_state_digest(rec))
        assert len(set(digests)) == 1
        assert len(set(reports)) == 1


class TestByteReproducibility:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_same_seed_same_bytes(self, workers):
        a, b = _run(workers, jitter=5), _run(workers, jitter=5)
        ha = hashlib.sha256(_image(a)).hexdigest()
        hb = hashlib.sha256(_image(b)).hexdigest()
        assert ha == hb, f"workers={workers} run not byte-reproducible"

    def test_workers1_is_the_single_daemon(self):
        """The pool of one IS the paper's daemon: repeat runs of the
        workers=1 schedule reproduce the image byte-for-byte, including
        every FACT slot, weak-column value, and policy word."""
        a, b = _run(1, jitter=7), _run(1, jitter=7)
        assert _image(a) == _image(b)
        assert a.controller.decision_log == b.controller.decision_log
        assert a.hybrid_stats() == b.hybrid_stats()


class TestWritesOutsideAVFS:
    def test_a_direct_write_leaves_the_lock_histogram_to_the_vfs(self):
        """A hybrid write outside any ConcurrentVFS reads lock contention
        as zero instead of registering ``conc.lock_wait_ns`` with the
        default buckets, which a later workload's VFS would then refuse
        to re-register with its own."""
        fs, dd = build()
        fs.write(fs.create("/direct"), 0, b"\x01" * 2 * PAGE_SIZE)
        fs.daemon.drain()
        assert "conc.lock_wait_ns" not in fs.obs.registry
        run_workload(fs, small_file_job(nfiles=8, dup_ratio=0.5, threads=4),
                     dd=dd)
        waits = fs.obs.registry.get("conc.lock_wait_ns")
        assert waits.bounds == tuple(sorted(WAIT_BUCKETS_NS))
        check_fs_invariants(fs)


class TestControllerPurity:
    def _drive_transitions(self):
        """Adaptive run with real transitions: INLINE -> OFF -> INLINE."""
        cfg = Config(device_pages=4096, max_inodes=256, cpus=2)
        fs, _ = make_fs(Variant.HYBRID, cfg)
        fs.controller.policy = HybridPolicy(probe_pages=128)
        start_word = fs.controller.modes_word()
        gen = DataGenerator(0.0, seed=13, stream=0)  # all-unique: alpha 0
        for i in range(40):
            ino = fs.create(f"/u{i}")
            fs.write(ino, 0, gen.file_data(16 * PAGE_SIZE))
        fs.daemon.drain()
        return fs, start_word

    def test_decisions_replay_identically(self):
        fs, start_word = self._drive_transitions()
        log = fs.controller.decision_log
        assert fs.controller.transitions >= 2     # OFF entered + probed
        modes_seen = {rec["to"] for rec in log}
        assert MODE_OFF in modes_seen and MODE_INLINE in modes_seen
        replayed = fs.controller.replay(log, initial_modes_word=start_word)
        assert replayed == log

    def test_transitions_persisted_to_superblock(self):
        fs, _ = self._drive_transitions()
        assert Superblock.load(fs.dev).hybrid_modes == fs.controller.modes_word()

    def test_concurrent_run_log_replays_identically(self):
        fs = _run(2, jitter=11)
        word = sum(MODE_INLINE << (4 * s)
                   for s in range(fs.controller.nshards))
        assert fs.controller.replay(fs.controller.decision_log,
                                    initial_modes_word=word) \
            == fs.controller.decision_log
