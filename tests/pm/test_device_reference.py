"""PMDevice against its per-line reference (``reference_device.py``).

Both devices get the same seeded operation sequences — stores of 1 B to
128 KB, aligned and straddling lines, cached and non-temporal, landing on
runs that are already volatile; atomic stores; ``clwb`` / ``sfence`` /
``persist``; hooks that raise ``CrashRequested`` mid-fence — and after
*every* step their clocks, counters, volatile-line counts and hook events
must compare ``==``, and so must the list of charges each made: the clock
accumulators are floats and the benchmark tracer counts simulated time by
wrapping ``SimClock.advance``, so the contract is one ``advance`` call per
charge, same values, same order (*n* lines of ``clwb`` are *n* calls).
After every crash, discard or torn, the two media must be byte-identical.

A durable store — ``write(..., persist=True)`` and its typed forms — is
one call on the real device and stays *two* on the reference (``write``,
then ``persist`` of the same range): the reference gains nothing, so the
fused body is held to the pair it replaced, hook for hook, including a
crash raised between the store and the fence.

The real device's content is a view of a private anonymous mapping that
the kernel zeroes on first touch; the reference's is zero-filled memory.
The last tests hold the two equal where that could show: over the whole
range before any store, after each kind of crash, and through an image.
"""

import mmap
import os
import random

import numpy as np
import pytest

from repro.pm import CACHELINE, CrashRequested, PMDevice, SimClock

from .reference_device import PerLineDevice

SIZE = 1 << 20                      # 16 384 lines; a 128 KB store fits 8x
STEPS_PER_ROUND = 140
ROUNDS = 6


class RecordingClock(SimClock):
    """A clock that also keeps every charge it was handed, in order."""

    __slots__ = ("charges",)

    def __init__(self):
        super().__init__()
        self.charges = []

    def advance(self, ns):
        self.charges.append(ns)
        super().advance(ns)


class Pair:
    """The real device and the reference, driven in lock step."""

    def __init__(self, track_wear=False):
        self.real = PMDevice(SIZE, clock=RecordingClock(),
                             track_wear=track_wear)
        self.ref = PerLineDevice(SIZE, clock=RecordingClock(),
                                 track_wear=track_wear)
        self.track_wear = track_wear
        self.charges_compared = 0
        self.events = {id(self.real): [], id(self.ref): []}
        self.trip_at = None         # (hook name, nth event from now)
        self.fused_trips = set()    # hooks that crashed a durable store
        for dev in (self.real, self.ref):
            for name in ("on_write", "on_persist", "on_persist_done"):
                setattr(dev.hooks, name, self._hook(name))

    def _hook(self, name):
        def fire(count, dev):
            log = self.events[id(dev)]
            log.append((name, count, dev.volatile_lines))
            if self.trip_at and self.trip_at[0] == name:
                seen = sum(1 for ev in log[self.round_start[id(dev)]:]
                           if ev[0] == name)
                if seen == self.trip_at[1]:
                    raise CrashRequested(name, count)
        return fire

    def arm(self, trip_at):
        self.trip_at = trip_at
        self.round_start = {key: len(log)
                            for key, log in self.events.items()}

    def _both(self, real_step, ref_step, where):
        """Run one step on each device; True if it crashed (on both)."""
        crashed = []
        for step in (real_step, ref_step):
            try:
                step()
                crashed.append(False)
            except CrashRequested:
                crashed.append(True)
        assert crashed[0] == crashed[1], where
        self.compare(where)
        return crashed[0]

    def do(self, op, *args, **kw):
        """Apply one operation to both."""
        return self._both(lambda: getattr(self.real, op)(*args, **kw),
                          lambda: getattr(self.ref, op)(*args, **kw),
                          (op, args[:1]))

    def do_durable(self, op, addr, payload, **kw):
        """One durable store: fused on the real device, the two calls it
        replaced on the reference."""
        ref_op, ref_payload = op, payload
        if op == "write":
            n = len(payload)
        elif op == "zero_range":
            n = payload
        elif op == "write_atomic64":
            n = 8
        else:                       # the reference has no typed u32 store
            ref_op, ref_payload, n = "write", payload.to_bytes(4, "little"), 4

        def two_calls():
            getattr(self.ref, ref_op)(addr, ref_payload, **kw)
            self.ref.persist(addr, n)

        crashed = self._both(
            lambda: getattr(self.real, op)(addr, payload, persist=True, **kw),
            two_calls, (op, addr, "persist=True"))
        if crashed:
            self.fused_trips.add(self.trip_at[0])
        return crashed

    def compare(self, where):
        real, ref = self.real, self.ref
        assert real.volatile_lines == ref.volatile_lines, where
        assert real.stats.snapshot() == ref.stats.snapshot(), where
        assert real.clock.charged_ns == ref.clock.charged_ns, where
        assert real.clock.now_ns == ref.clock.now_ns, where
        assert (real.clock.charges[self.charges_compared:]
                == ref.clock.charges[self.charges_compared:]), where
        self.charges_compared = len(real.clock.charges)
        assert self.events[id(real)] == self.events[id(ref)], where
        if self.track_wear:
            assert real.wear_max() == ref.wear_max(), where
            assert real.wear_total() == ref.wear_total(), where

    def compare_media(self, where):
        assert self.real.read_silent(0, SIZE) == self.ref.media(), where

    def crash(self, mode, seed):
        self.real.crash(mode, rng=np.random.default_rng(seed))
        self.ref.crash(mode, rng=np.random.default_rng(seed))
        self.compare(("crash", mode))
        self.compare_media(("crash", mode, seed))
        assert self.real.volatile_lines == 0
        self.real.recover_view()


def _store_args(rng, recent):
    """``(addr, data, nt)`` for one store: any size class, any alignment,
    half the time on top of (or next to) a run stored earlier."""
    n = rng.choice((
        rng.randint(1, 8), rng.randint(9, CACHELINE), rng.randint(65, 300),
        4096, rng.randint(4097, 40_000), rng.randint(40_001, 128 * 1024)))
    if recent and rng.random() < 0.5:
        base, length = rng.choice(recent)
        addr = base + rng.randint(-n, length)
    else:
        addr = rng.randrange(SIZE)
    if rng.random() < 0.5:
        addr -= addr % CACHELINE
    addr = max(0, min(addr, SIZE - n))
    data = rng.randbytes(n)
    kind = rng.random()
    if kind < 0.1:
        data = bytearray(data)
    elif kind < 0.2:
        data = memoryview(data)
    recent.append((addr, n))
    del recent[:-8]
    return addr, data, rng.random() < 0.4


def _range_args(rng, recent):
    """A range to ``clwb`` / ``persist``: usually one stored earlier."""
    if recent and rng.random() < 0.8:
        addr, n = rng.choice(recent)
        if rng.random() < 0.3:      # only part of it
            cut = rng.randrange(n)
            addr, n = addr + cut, n - cut
        return addr, n
    addr = rng.randrange(SIZE - 1)
    return addr, rng.randint(1, min(5000, SIZE - addr))


def _durable_store(rng, pair, recent):
    """One ``persist=True`` store of any kind: inside a line or across
    several, cached or non-temporal, empty, typed; half of them onto a
    run stored earlier, so onto dirty and already-flushing lines."""
    kind = rng.random()
    if kind < 0.45:
        addr, data, nt = _store_args(rng, recent)
        return pair.do_durable("write", addr, data, nt=nt)
    if kind < 0.55:                 # nothing stored; still persist(addr, 0)
        return pair.do_durable("write", rng.randrange(SIZE), b"",
                               nt=rng.random() < 0.5)
    if recent and rng.random() < 0.5:
        base, length = rng.choice(recent)
        addr = min(base + rng.randrange(length), SIZE - 8)
    else:
        addr = rng.randrange(SIZE - 8)
    if kind < 0.85:
        addr -= addr % 8
        recent.append((addr, 8))
        return pair.do_durable("write_atomic64", addr, rng.getrandbits(64))
    if kind < 0.93:                 # unaligned: may straddle two lines
        recent.append((addr, 4))
        return pair.do_durable("write_u32", addr, rng.getrandbits(32))
    n = rng.choice((8, CACHELINE, 4096))
    addr = min(addr - addr % 8, SIZE - n)
    recent.append((addr, n))
    return pair.do_durable("zero_range", addr, n, nt=rng.random() < 0.7)


def run_rounds(seed, track_wear=False, rounds=ROUNDS):
    rng = random.Random(seed)
    pair = Pair(track_wear=track_wear)
    crashes_mid_fence = 0
    for rnd in range(rounds):
        recent = []
        pair.arm(rng.choice((
            ("on_persist", rng.randint(1, 25)),
            ("on_persist_done", rng.randint(1, 25)),
            ("on_write", rng.randint(1, 60)),
            None)))
        for _ in range(STEPS_PER_ROUND):
            roll = rng.random()
            if roll < 0.30:
                addr, data, nt = _store_args(rng, recent)
                crashed = pair.do("write", addr, data, nt=nt)
                assert pair.real.read_silent(addr, len(data)) == bytes(data)
            elif roll < 0.45:
                crashed = _durable_store(rng, pair, recent)
            elif roll < 0.55:
                addr = rng.randrange(SIZE // 8) * 8
                recent.append((addr, 8))
                crashed = pair.do("write_atomic64", addr,
                                  rng.getrandbits(64))
            elif roll < 0.60:
                addr = rng.randrange(SIZE // 4096) * 4096
                recent.append((addr, 4096))
                crashed = pair.do("zero_range", addr, 4096,
                                  nt=rng.random() < 0.7)
            elif roll < 0.75:
                crashed = pair.do("clwb", *_range_args(rng, recent))
            elif roll < 0.85:
                crashed = pair.do("sfence")
            else:
                crashed = pair.do("persist", *_range_args(rng, recent))
            if crashed:
                crashes_mid_fence += pair.trip_at[0] != "on_write"
                break
        pair.compare_media(("before crash", rnd))
        pair.crash("torn" if rnd % 2 else "discard", seed * 100 + rnd)
    return pair, crashes_mid_fence


def test_random_sequences_match_the_per_line_reference():
    mid_fence = lines = 0
    fused_trips = set()
    for seed in range(8):
        try:
            pair, n = run_rounds(seed)
        except AssertionError as exc:
            raise AssertionError(f"seed {seed}: {exc}") from exc
        stats = pair.real.stats
        assert stats.crashes == ROUNDS and stats.nt_writes and stats.clwbs
        mid_fence += n
        lines += stats.lines_persisted
        fused_trips |= pair.fused_trips
    # The generator reached the cases the comparison is there for.
    assert mid_fence >= 8           # CrashRequested out of on_persist[_done]
    assert lines > 20_000
    # ... including each hook crashing *inside* a durable store.
    assert fused_trips == {"on_write", "on_persist", "on_persist_done"}


def test_wear_counts_match_the_per_line_reference():
    pair, _ = run_rounds(1234, track_wear=True, rounds=3)
    assert pair.real.wear_total() == pair.real.stats.lines_persisted > 0
    assert pair.real.wear_max() > 1


def test_partially_fenced_run_keeps_the_rest_volatile():
    """A fence that retires only some volatile lines (others still dirty)
    must drop exactly those shadows — the branch ``sfence`` rarely takes."""
    pair = Pair()
    pair.arm(None)
    pair.do("write", 0, bytes(range(256)) * 4)              # 16 dirty lines
    pair.do("clwb", 256, 512)                               # 8 of them
    pair.do("write", 320, b"again")                         # un-flushes one
    pair.do("sfence")
    assert pair.real.volatile_lines == 16 - 7
    pair.do("write", 100, b"x" * 1000, nt=True)
    pair.crash("torn", 5)


def test_torn_crash_draws_in_first_store_order():
    """Lines become volatile in the order 9, 3, 4, 5 (not ascending); the
    torn image depends on that order, and must match the reference."""
    pair = Pair()
    pair.arm(None)
    pair.do("write", 9 * CACHELINE, b"\xff" * CACHELINE)
    pair.do("write", 3 * CACHELINE, b"\xee" * (3 * CACHELINE), nt=True)
    pair.do("write", 9 * CACHELINE + 8, b"\x11" * 8)        # already volatile
    stored = pair.real.read_silent(0, 16 * CACHELINE)
    pair.crash("torn", 42)
    survived = pair.real.read_silent(0, 16 * CACHELINE)
    assert survived != stored and any(survived)     # some words, not all


@pytest.mark.parametrize("hook", ["on_write", "on_persist", "on_persist_done"])
@pytest.mark.parametrize("nt", [False, True])
def test_crash_between_store_and_fence_of_a_durable_store(hook, nt):
    """``on_write`` fires after the store and before any write-back (the
    store stays volatile, no clwb or sfence is charged); ``on_persist``
    after the clwb and the fence's charge, before the commit;
    ``on_persist_done`` after it.  Checked on a store inside one line
    and on one across three, over lines already dirty and flushing."""
    for addr, n in ((5 * CACHELINE + 8, 8), (9 * CACHELINE - 3, 2 * CACHELINE)):
        pair = Pair()
        pair.arm(None)
        pair.do("write", 5 * CACHELINE, b"d" * 16)              # dirty
        pair.do("write", 9 * CACHELINE, b"f" * CACHELINE)
        pair.do("clwb", 9 * CACHELINE, CACHELINE)               # flushing
        before = pair.real.stats.snapshot()
        pair.arm((hook, 1))
        assert pair.do_durable("write", addr, b"\xaa" * n, nt=nt)
        after = pair.real.stats.snapshot()
        fenced = hook != "on_write"
        lines = 1 if n == 8 else 3
        assert after["clwbs"] - before["clwbs"] == (lines if fenced else 0)
        assert after["sfences"] - before["sfences"] == fenced
        durable = hook == "on_persist_done"
        assert (after["lines_persisted"] > before["lines_persisted"]) \
            == durable
        pair.crash("torn", 11)
        survived = pair.real.read_silent(addr, n) == b"\xaa" * n
        assert survived or not durable


def test_durable_store_on_top_of_volatile_lines():
    """The fused store keeps the *older* snapshot of a line that is
    already volatile, re-dirties a line whose clwb was in flight, and its
    fence retires every flushing line — not only its own."""
    pair = Pair()
    pair.arm(None)
    pair.do_durable("write", 0, b"nothing in flight before")
    assert pair.real.volatile_lines == 0
    pair.do("write", 64, b"old-dirty")                      # line 1 dirty
    pair.do("write", 640, b"n" * 200, nt=True)              # 10..13 flushing
    pair.do("write", 3 * CACHELINE, b"elsewhere")           # line 3 dirty
    pair.do_durable("write_atomic64", 72, 0xDEADBEEF)       # onto line 1
    assert pair.real.volatile_lines == 1                    # line 3 only
    pair.do("write", 2048, b"x" * 100)
    pair.do("clwb", 2048, 100)
    pair.do_durable("write", 2050, b"yy")                   # onto flushing
    pair.do_durable("write", 4096, b"")                     # aligned, empty
    pair.do_durable("write", 4100, b"")                     # one line's clwb
    pair.do("write", 128, b"torn?" * 20)
    pair.crash("torn", 3)
    assert pair.real.read_silent(72, 8) == (0xDEADBEEF).to_bytes(8, "little")


def test_untouched_device_reads_as_zero_filled_memory(tmp_path):
    """No store has faulted most of the mapping in; every byte of it must
    still read as the reference's zero-filled buffer does — fresh, after
    a discard and a torn crash with volatile lines, and from an image."""
    pair = Pair()
    pair.arm(None)
    pair.compare_media("before any store")
    for mode in ("discard", "torn"):
        pair.do_durable("write", SIZE - 4096 - 7, b"kept " * 40)
        pair.do("write", 3 * CACHELINE + 5, b"lost?" * 50)
        pair.do("write", SIZE // 2, b"n" * 9000, nt=True)
        pair.do("clwb", 3 * CACHELINE, 128)
        assert pair.real.volatile_lines > 140
        pair.crash(mode, 77)        # compares the whole media

    pair.do_durable("write", 70_000, b"in the image")
    pair.do("write", 80_000, b"volatile: not in the image " * 30)
    before = pair.real.read_silent(0, SIZE)
    path = tmp_path / "dev.img"
    pair.real.save_image(path)
    assert pair.real.read_silent(0, SIZE) == before     # dump rolled back
    loaded = PMDevice.load_image(path)
    pair.ref.crash("discard")       # an image is what a power cycle leaves
    assert loaded.read_silent(0, SIZE) == pair.ref.media()
    assert (loaded.size, loaded.model, loaded.volatile_lines) \
        == (SIZE, pair.real.model, 0)
    assert isinstance(_buffer_owner(loaded), mmap.mmap)


def _buffer_owner(dev):
    """The object whose memory the device's content array is a view of."""
    owner = dev._mem
    while isinstance(owner, np.ndarray):
        owner = owner.base
    # np.frombuffer holds its buffer through a memoryview.
    return getattr(owner, "obj", owner)


def test_content_is_a_view_of_one_private_anonymous_mapping():
    """``np.zeros`` must not grow back unnoticed: the array, its byte
    view and its line view are one buffer, owned by an ``mmap`` that is
    private (``MAP_SHARED``, Python's default, is shmem) and anonymous."""
    dev = PMDevice(SIZE)
    mapping = _buffer_owner(dev)
    assert isinstance(mapping, mmap.mmap) and len(mapping) == SIZE
    assert dev._bytes.obj is dev._mem and dev._mem_lines.base is dev._mem
    assert dev._mem.flags.writeable and not dev._mem.flags.owndata
    if not os.path.exists("/proc/self/maps"):
        pytest.skip("no /proc/self/maps to read the mapping's flags from")
    addr = dev._mem.ctypes.data
    with open("/proc/self/maps") as maps:
        for line in maps:
            span, perms, _offset, _dev, inode, *path = line.split()
            lo, hi = (int(x, 16) for x in span.split("-"))
            if lo <= addr < hi:
                assert (perms, inode, path) == ("rw-p", "0", []), line
                break
        else:
            pytest.fail("device memory is in no mapping of this process")
