"""Property-based tests (hypothesis) on the core invariants.

The central property: DeNovaFS under any operation sequence — including
background dedup at arbitrary points and full crash/recover cycles —
behaves exactly like a trivial in-memory filesystem oracle.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.dedup import DeNovaFS
from repro.failure import check_fs_invariants
from repro.nova import PAGE_SIZE
from repro.nova.fs import NoSpace
from repro.nova.gc import thorough_gc
from repro.pm import DRAM, PMDevice, SimClock

MAX_FILE = 6 * PAGE_SIZE


def _content(draw_bytes: bytes, reps: int) -> bytes:
    return (draw_bytes * reps)[:MAX_FILE]


class DeNovaOracleMachine(RuleBasedStateMachine):
    """Random ops on DeNovaFS vs a dict oracle, with crashes and dedup."""

    paths = Bundle("paths")

    @initialize()
    def setup(self):
        self.dev = PMDevice(4096 * PAGE_SIZE, model=DRAM, clock=SimClock())
        self.fs = DeNovaFS.mkfs(self.dev, max_inodes=128)
        self.oracle: dict[str, bytearray] = {}
        self.counter = 0

    # -- operations -------------------------------------------------------------

    @rule(target=paths)
    def create(self):
        self.counter += 1
        path = f"/f{self.counter}"
        self.fs.create(path)
        self.oracle[path] = bytearray()
        return path

    @rule(path=paths,
          offset=st.integers(0, 3 * PAGE_SIZE),
          pattern=st.binary(min_size=1, max_size=64),
          reps=st.integers(1, 200))
    def write(self, path, offset, pattern, reps):
        if path not in self.oracle:
            return
        data = _content(pattern, reps)
        if offset + len(data) > MAX_FILE:
            offset = max(0, MAX_FILE - len(data))
        try:
            ino = self.fs.lookup(path)
            self.fs.write(ino, offset, data)
        except NoSpace:
            self.fs.daemon.drain()  # free duplicate pages, then give up
            return
        buf = self.oracle[path]
        if len(buf) < offset:
            buf.extend(bytes(offset - len(buf)))
        buf[offset:offset + len(data)] = data

    @rule(path=paths, size=st.integers(0, MAX_FILE))
    def truncate(self, path, size):
        if path not in self.oracle:
            return
        self.fs.truncate(self.fs.lookup(path), size)
        buf = self.oracle[path]
        if size <= len(buf):
            del buf[size:]
        else:
            buf.extend(bytes(size - len(buf)))

    @rule(path=paths)
    def unlink(self, path):
        if path not in self.oracle:
            return
        self.fs.unlink(path)
        del self.oracle[path]

    @rule(target=paths, path=paths)
    def reflink(self, path):
        self.counter += 1
        dst = f"/r{self.counter}"
        if path not in self.oracle:
            # Keep the bundle entry valid: fall back to a fresh file.
            self.fs.create(dst)
            self.oracle[dst] = bytearray()
            return dst
        self.fs.reflink(path, dst)
        self.oracle[dst] = bytearray(self.oracle[path])
        return dst

    @rule(path=paths)
    def thorough_gc(self, path):
        if path not in self.oracle:
            return
        thorough_gc(self.fs, self.fs.lookup(path))

    @rule()
    def gc_root(self):
        thorough_gc(self.fs, 1)

    @rule()
    def drain_daemon(self):
        self.fs.daemon.drain()

    @rule(limit=st.integers(1, 3))
    def partial_drain(self, limit):
        self.fs.daemon.drain(limit=limit)

    @rule()
    def crash_and_recover(self):
        self.dev.crash()
        self.dev.recover_view()
        self.fs = DeNovaFS.mount(self.dev)

    @rule()
    def clean_remount(self):
        self.fs.unmount()
        self.fs = DeNovaFS.mount(self.dev)

    @rule()
    def scrub(self):
        self.fs.scrub()

    # -- properties ----------------------------------------------------------------

    @rule(path=paths)
    def check_one_file(self, path):
        if path not in self.oracle:
            assert not self.fs.exists(path)
            return
        ino = self.fs.lookup(path)
        expected = bytes(self.oracle[path])
        assert self.fs.stat(ino).size == len(expected)
        assert self.fs.read(ino, 0, len(expected) + 1) == expected

    @invariant()
    def fs_invariants_hold(self):
        if getattr(self, "fs", None) is not None:
            check_fs_invariants(self.fs)

    def teardown(self):
        if getattr(self, "fs", None) is None:
            return
        self.fs.daemon.drain()
        for path, expected in self.oracle.items():
            ino = self.fs.lookup(path)
            assert self.fs.read(ino, 0, MAX_FILE + 1) == bytes(expected)
        check_fs_invariants(self.fs)


TestDeNovaOracle = DeNovaOracleMachine.TestCase
TestDeNovaOracle.settings = settings(
    max_examples=20,
    stateful_step_count=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestWriteReadProperties:
    @given(chunks=st.lists(
        st.tuples(st.integers(0, 4 * PAGE_SIZE),
                  st.binary(min_size=1, max_size=300)),
        min_size=1, max_size=15))
    @settings(max_examples=40, deadline=None)
    def test_overlapping_writes_linearize(self, chunks):
        """Any sequence of overlapping writes reads back like a buffer."""
        dev = PMDevice(2048 * PAGE_SIZE, model=DRAM, clock=SimClock())
        fs = DeNovaFS.mkfs(dev, max_inodes=16)
        ino = fs.create("/f")
        oracle = bytearray()
        for offset, data in chunks:
            fs.write(ino, offset, data)
            if len(oracle) < offset:
                oracle.extend(bytes(offset - len(oracle)))
            oracle[offset:offset + len(data)] = data
        fs.daemon.drain()
        assert fs.read(ino, 0, len(oracle) + 10) == bytes(oracle)
        check_fs_invariants(fs)

    @given(alpha=st.floats(0.0, 1.0), seed=st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_dedup_never_corrupts_any_alpha(self, alpha, seed):
        """Whatever the duplicate ratio, contents round-trip exactly."""
        from repro.workloads import DataGenerator

        dev = PMDevice(2048 * PAGE_SIZE, model=DRAM, clock=SimClock())
        fs = DeNovaFS.mkfs(dev, max_inodes=64)
        gen = DataGenerator(alpha=alpha, seed=seed, dup_pool_size=4)
        files = {}
        for i in range(6):
            path = f"/f{i}"
            data = gen.file_data(2 * PAGE_SIZE)
            ino = fs.create(path)
            fs.write(ino, 0, data)
            files[ino] = data
        fs.daemon.drain()
        for ino, data in files.items():
            assert fs.read(ino, 0, len(data)) == data
        check_fs_invariants(fs)

    @given(seed=st.integers(0, 2**16), point=st.integers(1, 60))
    @settings(max_examples=25, deadline=None)
    def test_random_crash_point_recovers(self, seed, point):
        """Crash at an arbitrary persistence event under a dedup-heavy
        workload; recovery restores a consistent filesystem."""
        from repro.failure.injector import run_with_crash
        from repro.workloads import DataGenerator

        def build():
            dev = PMDevice(2048 * PAGE_SIZE, model=DRAM, clock=SimClock())
            fs = DeNovaFS.mkfs(dev, max_inodes=64)
            gen = DataGenerator(alpha=0.7, seed=seed, dup_pool_size=2)

            def scenario():
                for i in range(4):
                    ino = fs.create(f"/f{i}")
                    fs.write(ino, 0, gen.file_data(2 * PAGE_SIZE))
                    if i % 2:
                        fs.daemon.drain()
                fs.daemon.drain()

            return dev, scenario

        outcome = run_with_crash(build, point, phase="pre", mode="torn",
                                 seed=seed)
        if not outcome.crashed:
            return
        fs = DeNovaFS.mount(outcome.dev)
        check_fs_invariants(fs)
        fs.daemon.drain()
        check_fs_invariants(fs)


class TestAllocatorProperties:
    @given(ops=st.lists(st.tuples(st.booleans(), st.integers(1, 6),
                                  st.integers(0, 2)),
                        max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_conservation_and_disjointness(self, ops):
        from repro.pm import AllocError, PageAllocator

        alloc = PageAllocator(0, 120, cpus=3)
        live = []
        for is_alloc, count, cpu in ops:
            if is_alloc or not live:
                try:
                    start = alloc.alloc(count, cpu)
                except AllocError:
                    continue
                live.append((start, count))
            else:
                start, count = live.pop()
                alloc.free(start, count, cpu)
            held = sum(c for _, c in live)
            assert alloc.free_pages + held == 120
        spans = sorted(live)
        for (s1, c1), (s2, _) in zip(spans, spans[1:]):
            assert s1 + c1 <= s2
