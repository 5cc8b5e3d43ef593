"""Schedule-permutation determinism: the tentpole acceptance test.

A mixed read/write/dedup workload is run under several seeded
interleavings (ConcurrentVFS jitter perturbs lock-acquisition order,
worker/client overlap, and steal decisions); the final *logical*
filesystem state must be identical every time — background dedup and
scheduling freedom are unobservable.
"""

import pytest

from repro.conc import fs_state_digest
from repro.core import Config, Variant, make_fs
from repro.failure import check_fs_invariants
from repro.nova import PAGE_SIZE
from repro.workloads.datagen import DataGenerator
from tests.conc.permutations import run_permutations

pytestmark = pytest.mark.conc

SEEDS = [1, 2, 3, 4, 5, 6]


def build():
    return make_fs(Variant.IMMEDIATE,
                   Config(device_pages=4096, max_inodes=256, cpus=4))


def mixed_client(vfs, tid, nfiles=6, dup_ratio=0.6):
    """Create, write duplicate-heavy data, read it back, overwrite one
    file — enough op diversity that reordering could plausibly matter."""
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
        # Overwrite the first file so reclaim + FACT dec_rfc runs too.
        redo = gen.file_data(PAGE_SIZE)
        yield from vfs.write(
            lambda: fs.write(inos[0], 0, redo, cpu=tid), holder, inos[0])

    return body()


class TestSchedulePermuter:
    def test_final_state_identical_across_seeded_interleavings(self):
        report = run_permutations(
            build, mixed_client, clients=3, seeds=SEEDS, workers=2,
            jitter_ns=4000.0,
            check=lambda fs: check_fs_invariants(fs))
        assert len(report.digests) == len(SEEDS) >= 5
        report.assert_deterministic()
        # The schedules genuinely differed — determinism was not vacuous.
        assert len(set(report.total_ns)) > 1
        assert all(n > 0 for n in report.worker_nodes)

    def test_digest_detects_logical_divergence(self):
        """Guard the guard: the digest must move when contents move."""
        fs, _ = build()
        fs.mkdir("/d")
        ino = fs.create("/d/f")
        fs.write(ino, 0, b"a" * PAGE_SIZE)
        before = fs_state_digest(fs)
        fs.write(ino, 0, b"b" * PAGE_SIZE)
        assert fs_state_digest(fs) != before
        fs.create("/d/g")
        assert fs_state_digest(fs) != before

    def test_digest_ignores_physical_layout(self):
        """Two filesystems with identical logical trees built through
        different op orders (hence different inode numbers and page
        placement) must digest identically."""
        a, _ = build()
        a.mkdir("/d")
        ia = a.create("/d/x")
        a.write(ia, 0, b"q" * PAGE_SIZE)
        a.create("/d/y")

        b, _ = build()
        b.mkdir("/d")
        b.create("/d/y")                     # reversed creation order
        b.create("/scratch")                 # extra churn...
        b.unlink("/scratch")                 # ...then removed
        ib = b.create("/d/x")
        b.write(ib, 0, b"q" * PAGE_SIZE)
        assert fs_state_digest(a) == fs_state_digest(b)

    def test_backpressure_schedules_also_converge(self):
        report = run_permutations(
            build, mixed_client, clients=2, seeds=[10, 11, 12, 13, 14],
            workers=2, jitter_ns=3000.0, max_shard_depth=2)
        report.assert_deterministic()
