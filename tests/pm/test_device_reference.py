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
(``advance_n(ns, n)`` is by contract those *n* calls, and on a clock whose
``advance`` is overridden, as the recording one's is, it makes them; one
test repeats the rounds on plain clocks, where the device's runs of equal
charges are folded in C and the two clocks must still read the same.)

Between the steps both devices serve charged reads — ``read`` and
``read_view``, which is ``read`` on the reference: equal bytes, counters
and charges, whatever is volatile at the time.

A durable store — ``write(..., persist=True)`` and its typed forms — is
one call on the real device and stays *two* on the reference (``write``,
then ``persist`` of the same range): the reference gains nothing, so the
fused body is held to the pair it replaced, hook for hook, including a
crash raised between the store and the fence.

On a device with nothing volatile the durable store runs a body of its
own, its lines held *in flight* instead of in the per-line tables; the
directed tests put every shape of run through it, crash it out of every
hook, and require the reference's media after both kinds of crash — and
require the table body for the same store on top of volatile lines.
With no hook installed, on a clock that folds, every durable store takes
no pre-image and is one integer charge, whatever else is volatile; one
test runs the rounds beside such a device and holds it to the hooked,
recording one.  A non-temporal store onto empty tables is *held* as one
run with one pre-image until a fence retires it whole, or something that
needs its lines one by one (an overlapping store, a crash, an image)
spreads it; directed tests put each of those through it.

The real device's content is a view of a private anonymous mapping that
the kernel zeroes on first touch; the reference's is zero-filled memory.
The tests after those hold the two equal where that could show: over the
whole range before any store, after each kind of crash, and through an
image.  The last ones close devices: the next device of that size gets
the mapping, and must be the reference's fresh device all the same.
"""

import hashlib
import mmap
import os
import random

import numpy as np
import pytest

from repro.pm import CACHELINE, CrashRequested, PMDevice, PMStats, SimClock
from repro.pm import device as device_module

from .reference_device import PerLineDevice, volatile_lines

SIZE = 1 << 20                      # 16 384 lines; a 128 KB store fits 8x
STEPS_PER_ROUND = 140
ROUNDS = 6
BODIES = ("in flight", "tables", "held run", "fused over volatile")
TORN_FORK_LINES = 256


class RecordingClock(SimClock):
    """A clock that also keeps every charge it was handed, in order."""

    __slots__ = ("charges",)

    def __init__(self):
        super().__init__()
        self.charges = []

    def advance(self, ns):
        self.charges.append(ns)
        super().advance(ns)


class FoldingClock(SimClock):
    """``advance`` left as it is, so ``advance_n`` folds on the real
    device while the reference loops; no charge list to compare."""

    __slots__ = ("charges",)

    def __init__(self):
        super().__init__()
        self.charges = ()


class Pair:
    """The real device and the reference, driven in lock step."""

    def __init__(self, track_wear=False, clock=RecordingClock, plain=False,
                 forks=False):
        self.real = PMDevice(SIZE, clock=clock(), track_wear=track_wear)
        self.ref = PerLineDevice(SIZE, clock=clock(), track_wear=track_wear)
        # A third device on a plain clock with no hooks (see
        # test_random_sequences_match_on_a_plain_clock_with_no_hooks).
        self.plain = (PMDevice(SIZE, clock=SimClock(), track_wear=track_wear)
                      if plain else None)
        self.track_wear = track_wear
        self.charges_compared = 0
        self.events = {id(self.real): [], id(self.ref): []}
        self.trip_at = None         # (hook name, nth event from now)
        self.fused_trips = set()    # hooks that crashed a durable store
        # Stores by the body that ran them: durable ones on the real
        # device as on_persist saw them, nt stores the real device held as
        # a run, and durable stores the plain device fused over lines
        # that were already volatile.
        self.bodies = dict.fromkeys(BODIES, 0)
        self.in_durable = False
        # With ``forks``: the real device's forks, taken after every step
        # and in every persist hook, each waiting for the reference to
        # reach the same point; how many were compared, and how many
        # were taken with a durable store's lines in flight.
        self.forks = [] if forks else None
        self.forks_compared = self.forks_in_flight = 0
        for dev in (self.real, self.ref):
            for name in ("on_persist", "on_persist_done"):
                setattr(dev.hooks, name, self._hook(name))
        if self.plain is not None:
            commit_beside = self.plain._commit_beside

            def fused_over_volatile(first, last):
                self.bodies["fused over volatile"] += 1
                commit_beside(first, last)
            self.plain._commit_beside = fused_over_volatile

    def _hook(self, name):
        def fire(count, dev):
            log = self.events[id(dev)]
            log.append((name, count, volatile_lines(dev)))
            if dev is self.real and self.in_durable and name == "on_persist":
                assert bool(dev._in_flight) != bool(dev._shadow)
                self.bodies["in flight" if dev._in_flight else "tables"] += 1
            if self.forks is not None:
                self.fork(dev, (name, count))
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

    def _both(self, real_step, ref_step, where, plain_step=None,
              read=False):
        """Run one step on each device; True if it crashed (on both)."""
        crashed = []
        for step in (real_step, ref_step):
            try:
                step()
                crashed.append(False)
            except CrashRequested:
                crashed.append(True)
        assert crashed[0] == crashed[1], where
        if self.plain is not None:
            plain_step()            # nothing on it can raise
        self.compare(where)
        if self.forks is not None and not read:
            self.fork(self.real, where)
            self.fork(self.ref, where)
        return crashed[0]

    def fork(self, dev, where):
        """Fork the real device: stats, clock and volatile lines its
        own.  At the reference's turn, crash the forks, one ``discard``
        and — with at most ``TORN_FORK_LINES`` volatile, where the
        per-line draws stay cheap — one ``torn``: each must leave the
        reference's media after the same crash."""
        if dev is self.real:
            modes = ("discard", "torn")[
                :1 + (volatile_lines(dev) <= TORN_FORK_LINES)]
            forks = [(mode, dev.fork()) for mode in modes]
            for _mode, fork in forks:
                assert fork.stats.snapshot() == dev.stats.snapshot(), where
                assert (fork.clock.now_ns, fork.clock.charged_ns) \
                    == (dev.clock.now_ns, dev.clock.charged_ns), where
                assert volatile_lines(fork) == volatile_lines(dev), where
            self.forks.append(forks)
            self.forks_in_flight += bool(dev._in_flight)
            return
        seed = 31 * self.forks_compared
        for mode, fork in self.forks.pop(0):
            twin = dev.fork()
            fork.crash(mode, rng=np.random.default_rng(seed))
            twin.crash(mode, rng=np.random.default_rng(seed))
            assert fork.read_silent(0, SIZE) == twin.mem, (where, mode)
            fork.close()
        self.forks_compared += 1

    def do(self, op, *args, **kw):
        """Apply one operation to both."""
        held = len(self.real._runs)
        crashed = self._both(lambda: getattr(self.real, op)(*args, **kw),
                             lambda: getattr(self.ref, op)(*args, **kw),
                             (op, args[:1]),
                             lambda: getattr(self.plain, op)(*args, **kw))
        self.bodies["held run"] += len(self.real._runs) > held
        return crashed

    def do_read(self, op, *args, **kw):
        """One charged read of any kind on both; the bytes must agree
        (the reference's ``read_view`` is its ``read``)."""
        got = []
        self._both(lambda: got.append(getattr(self.real, op)(*args, **kw)),
                   lambda: got.append(getattr(self.ref, op)(*args, **kw)),
                   (op, args, kw),
                   lambda: got.append(getattr(self.plain, op)(*args, **kw)),
                   read=True)
        real, ref = got[:2]
        assert bytes(real) == ref, (op, args, kw)
        assert all(bytes(plain) == ref for plain in got[2:])
        return real

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

        self.in_durable = n > 0     # an empty one stores nothing
        try:
            crashed = self._both(
                lambda: getattr(self.real, op)(addr, payload, persist=True,
                                               **kw),
                two_calls, (op, addr, "persist=True"),
                lambda: getattr(self.plain, op)(addr, payload, persist=True,
                                                **kw))
        finally:
            self.in_durable = False
        if crashed:
            self.fused_trips.add(self.trip_at[0])
        return crashed

    def compare(self, where):
        real, ref = self.real, self.ref
        assert volatile_lines(real) == volatile_lines(ref), where
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
        plain = self.plain
        if plain is not None:
            assert volatile_lines(plain) == volatile_lines(real), where
            assert plain.stats == real.stats, where
            assert (plain.clock.charged_fs, plain.clock.now_fs) \
                == (real.clock.charged_fs, real.clock.now_fs), where
            if self.track_wear:
                assert (plain.wear_max(), plain.wear_total()) \
                    == (ref.wear_max(), ref.wear_total()), where

    def compare_media(self, where):
        assert self.real.read_silent(0, SIZE) == self.ref.media(), where
        if self.plain is not None:
            assert self.plain.read_silent(0, SIZE) == self.ref.media(), where

    def crash(self, mode, seed):
        self.real.crash(mode, rng=np.random.default_rng(seed))
        self.ref.crash(mode, rng=np.random.default_rng(seed))
        if self.plain is not None:
            self.plain.crash(mode, rng=np.random.default_rng(seed))
        self.compare(("crash", mode))
        self.compare_media(("crash", mode, seed))
        assert volatile_lines(self.real) == 0
        self.real.recover_view()
        if self.plain is not None:
            self.plain.recover_view()


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
    # A cached zero store is a write of zeros: zero_range is the
    # non-temporal one.
    if rng.random() < 0.7:
        return pair.do_durable("zero_range", addr, n)
    return pair.do_durable("write", addr, bytes(n))


def _fence_everything(pair):
    """``clwb`` every volatile run, then ``sfence``: unless a hook trips,
    nothing is volatile afterwards — mid-round, with stats, clock and
    hook counts well away from a fresh device's."""
    runs = []
    for line in sorted(pair.ref.shadow):
        if runs and sum(runs[-1]) == line:
            runs[-1][1] += 1
        else:
            runs.append([line, 1])
    for start, count in runs:
        pair.do("clwb", start * CACHELINE, count * CACHELINE)
    crashed = pair.do("sfence")
    assert crashed or volatile_lines(pair.real) == 0
    return crashed


def _a_read(rng, pair, kinds):
    """A charged read between two steps of a round: whatever is stored,
    volatile or not, is what all three kinds return."""
    kind = rng.choice(("read", "read_view"))
    kinds[kind] += 1
    n = rng.choice((0, 1, 8, CACHELINE, rng.randint(1, 9000)))
    addr = SIZE - n if rng.random() < 0.2 else rng.randrange(SIZE - n)
    view = pair.do_read(kind, addr, n)
    if kind == "read_view":
        assert isinstance(view, memoryview) and view.readonly
        with pytest.raises(TypeError):
            view[:1] = b"!"


def _quiet(count, dev):
    """A hook that only looks."""


def run_rounds(seed, track_wear=False, rounds=ROUNDS, clock=RecordingClock,
               plain=False, forks=False):
    rng = random.Random(seed)
    # The reads draw from a generator of their own: the rounds are the
    # sequences they were before the device had ``read_view``.
    read_rng = random.Random(seed + 9000)
    pair = Pair(track_wear=track_wear, clock=clock, plain=plain, forks=forks)
    pair.reads = dict.fromkeys(("read", "read_view"), 0)
    crashes_mid_fence = 0
    for rnd in range(rounds):
        recent = []
        trips = (("on_persist", rng.randint(1, 25)),
                 ("on_persist_done", rng.randint(1, 25)))
        rng.randint(1, 60)      # the deleted on_write trip's draw: the
        #                         other rounds stay the sequences they were
        trip = rng.choice((*trips, None, None))
        # A trip has no twin on the plain device: drawn, not armed.
        pair.arm(None if plain else trip)
        if plain:                   # a hook of its own in rounds 2 and 3
            pair.plain.hooks.on_persist = _quiet if rnd in (2, 3) else None
        for _ in range(STEPS_PER_ROUND):
            roll = rng.random()
            if roll < 0.04:
                crashed = _fence_everything(pair)
            elif roll < 0.30:
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
                crashed = (pair.do("zero_range", addr, 4096)
                           if rng.random() < 0.7
                           else pair.do("write", addr, bytes(4096)))
            elif roll < 0.75:
                crashed = pair.do("clwb", *_range_args(rng, recent))
            elif roll < 0.85:
                crashed = pair.do("sfence")
            else:
                crashed = pair.do("persist", *_range_args(rng, recent))
            if crashed:
                crashes_mid_fence += 1
                break
            if read_rng.random() < 0.35:
                _a_read(read_rng, pair, pair.reads)
        pair.compare_media(("before crash", rnd))
        pair.crash("torn" if rnd % 2 else "discard", seed * 100 + rnd)
    return pair, crashes_mid_fence


def test_random_sequences_match_the_per_line_reference():
    mid_fence = lines = 0
    fused_trips = set()
    bodies = dict.fromkeys(BODIES, 0)
    reads = {}
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
        for body, count in pair.bodies.items():
            bodies[body] += count
        for kind, count in pair.reads.items():
            reads[kind] = reads.get(kind, 0) + count
    # The generator reached the cases the comparison is there for.
    assert mid_fence >= 8           # CrashRequested out of on_persist[_done]
    assert lines > 20_000
    # ... including each hook crashing *inside* a durable store.
    assert fused_trips == {"on_persist", "on_persist_done"}
    # ... and both bodies of the hooked durable store, and held runs,
    # many times each (the plain device's fused body: the test below).
    assert min(bodies["in flight"], bodies["tables"],
               bodies["held run"]) >= 50, bodies
    # ... and every kind of charged read between the steps.
    assert min(reads.values()) >= 40, reads


def test_random_sequences_match_with_the_charges_folded():
    """The same rounds on plain clocks: the device's runs of equal
    charges go through ``advance_n``'s fold, the reference's through its
    per-line, per-slot loops, and both clocks must read the same."""
    for seed in (3, 5):
        pair, _ = run_rounds(seed, clock=FoldingClock)
        assert type(pair.real.clock).advance is SimClock.advance
        assert pair.real.clock.charged_ns > 1e6


def test_random_sequences_match_on_a_plain_clock_with_no_hooks():
    """The same rounds beside a third device on a plain ``SimClock`` with
    no hooks: its durable stores onto a quiescent device take no
    pre-image and are one integer charge.  After every step its
    ``PMStats``, ``volatile_lines``, ``charged_fs`` and ``now_fs`` equal
    the hooked, recording-clock device's, its reads return the same
    bytes, and before and after each round's crash its media is the
    reference's.  A trip there has no twin, so trips are drawn but not
    armed; in rounds 2 and 3 the third device has a hook of its own and
    goes back to the per-charge body.  Its fused stores onto lines that
    are already volatile — dirty, flushing, held runs — commit the runs
    and flushing lines with their own and leave the dirty ones."""
    bodies = dict.fromkeys(BODIES, 0)
    for seed in range(8):
        pair, mid_fence = run_rounds(seed, plain=True)
        assert mid_fence == 0 and pair.plain.stats.crashes == ROUNDS
        for body, count in pair.bodies.items():
            bodies[body] += count
    assert min(bodies["in flight"], bodies["fused over volatile"]) >= 100, \
        bodies


def test_a_fork_is_the_crash_a_hook_would_leave():
    """Rounds of two seeds, the real device forked after every step and
    from inside every ``on_persist`` / ``on_persist_done`` — mid-fence,
    in the durable store's body of its own with the lines in flight,
    over held runs — and each fork crashed: its media is the reference's
    after the same crash, torn draws included.  (A fork costs a copy of
    the device, so two seeds, not eight.)"""
    compared = in_flight = 0
    for seed in (0, 1):
        pair, _ = run_rounds(seed, forks=True)
        assert pair.forks == []
        compared += pair.forks_compared
        in_flight += pair.forks_in_flight
    assert compared > 2 * ROUNDS * STEPS_PER_ROUND and in_flight >= 20


@pytest.mark.parametrize("nt", [False, True])
def test_a_fork_inside_a_durable_store_has_its_lines_volatile(nt):
    """Forked from ``on_persist`` of a durable store onto a quiescent
    device, its lines in flight in no table, every shape of run: the
    fork holds them as a crash out of that hook leaves them."""
    for addr, n, lines in RUNS:
        pair = Pair(forks=True)
        pair.arm(None)
        pair.do_durable("write", addr - 64,
                        bytes(range(1, 256)) * (n // 255 + 2))
        pair.do_durable("write", addr, b"\xa5" * n, nt=nt)
        # Per store: on_persist (in flight), on_persist_done, the step.
        assert (pair.forks_compared, pair.forks_in_flight) == (6, 2)


@pytest.mark.parametrize("hook", ["on_persist"])
def test_a_raising_hook_on_a_folding_clock_leaves_the_run_volatile(hook):
    """A clock that folds does not take the one-charge store while a
    hook is installed: one that raises out of a durable store onto a
    quiescent device leaves its lines volatile, as the reference's
    ``write`` + ``persist`` does, charge for charge."""
    for addr, n, lines in RUNS:
        pair = Pair(clock=FoldingClock)
        pair.arm(None)
        under = bytes(range(1, 256)) * (n // 255 + 2)
        pair.do_durable("write", addr - 64, under)
        assert volatile_lines(pair.real) == 0 and pair.real.clock.folds
        pair.arm((hook, 1))
        assert pair.do_durable("write", addr, b"\xa5" * n)
        assert volatile_lines(pair.real) == lines
        assert pair.bodies == {"in flight": 2, "tables": 0, "held run": 0,
                               "fused over volatile": 0}
        pair.crash("discard", 3000 + lines)
        assert pair.real.read_silent(addr, n) != b"\xa5" * n


@pytest.mark.parametrize("call", [
    lambda d: d.read(-1, 4),
    lambda d: d.read(0, -1),
    lambda d: d.read(SIZE - 3, 4),
    lambda d: d.read(SIZE, 1),
    lambda d: d.read_u64(SIZE - 4),
    lambda d: d.read_u64(-8),
    lambda d: d.read_u64(SIZE),
    lambda d: d.read_view(-1, 4),
    lambda d: d.read_view(0, -1),
    lambda d: d.read_view(SIZE - 3, 4),
], ids=[0, 1, 2, 3, 6, 7, 8, 9, 10, 11])
def test_reads_out_of_bounds_are_refused_and_cost_nothing(call):
    dev = PMDevice(SIZE, clock=RecordingClock())
    dev.write(0, b"\x01", persist=True)
    stats, charged = dev.stats.snapshot(), dev.clock.charged_ns
    with pytest.raises(ValueError, match="out of device bounds"):
        call(dev)
    assert (dev.stats.snapshot(), dev.clock.charged_ns) == (stats, charged)
    # In bounds to the last byte, the same calls go through.
    assert dev.read(SIZE - 1, 1) == bytes(dev.read_view(SIZE - 1, 1)) \
        == b"\0" and dev.read_u64(SIZE - 8) == 0
    assert dev.read_view(SIZE, 0) == b""


def test_reads_of_a_crashed_device_are_refused():
    dev = PMDevice(SIZE)
    view = dev.read_view(0, 8)
    dev.crash()
    for call in (lambda: dev.read(0, 8),
                 lambda: dev.read_view(0, 8)):
        with pytest.raises(RuntimeError, match="has crashed; call "
                                               "recover_view"):
            call()
    assert dev.stats.reads == 1 and bytes(view) == bytes(8)
    dev.recover_view()
    assert dev.read(0, 8) == bytes(8)


def test_read_view_is_the_devices_own_bytes_read_only():
    """Charged and counted as the ``read`` it replaces; no copy — so it
    cannot be stored through, and it shows what is stored after it was
    taken: a caller takes what it needs at once and lets go."""
    pair = Pair()
    pair.arm(None)
    pair.do_durable("write", 4096, b"before" * 100)
    view = pair.do_read("read_view", 4096, 600)
    assert isinstance(view, memoryview) and view.readonly
    assert view.obj is pair.real._mem and view.nbytes == 600
    for store in (lambda: view.__setitem__(0, 1),
                  lambda: view.__setitem__(slice(0, 2), b"xx"),
                  lambda: np.frombuffer(view, np.uint8).__setitem__(0, 1)):
        with pytest.raises((TypeError, ValueError)):
            store()
    taken = bytes(view[:6])
    pair.do("write", 4096, b"after!")
    assert (taken, bytes(view[:6])) == (b"before", b"after!")
    assert pair.real.read(4096, 6) == b"after!"


def test_a_device_closed_under_a_read_view_is_not_recycled(idle):
    dev = PMDevice(SIZE)
    dev.write(150, b"still here", persist=True)
    mapping = _buffer_owner(dev)
    view = dev.read_view(100, 100)
    dev.close()
    assert idle == []               # the view outlived it: dropped
    assert bytes(view[50:60]) == b"still here"
    nxt = PMDevice(SIZE)
    assert _buffer_owner(nxt) is not mapping
    _assert_fresh(nxt, SIZE)
    del view
    # A view that was decoded, copied from and let go holds nothing.
    dev = PMDevice(SIZE)
    mapping = _buffer_owner(dev)
    column = np.frombuffer(dev.read_view(0, 4096), dtype="<u8")[::8].copy()
    dev.close()
    assert idle == [mapping] and not column.any()


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
    assert volatile_lines(pair.real) == 16 - 7
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


@pytest.mark.parametrize("hook", ["on_persist", "on_persist_done"])
@pytest.mark.parametrize("nt", [False, True])
def test_crash_between_store_and_fence_of_a_durable_store(hook, nt):
    """``on_persist`` fires after the clwb and the fence's charge,
    before the commit;
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
        lines = 1 if n == 8 else 3
        assert after["clwbs"] - before["clwbs"] == lines
        assert after["sfences"] - before["sfences"] == 1
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
    assert volatile_lines(pair.real) == 0
    pair.do("write", 64, b"old-dirty")                      # line 1 dirty
    pair.do("write", 640, b"n" * 200, nt=True)              # 10..13 flushing
    pair.do("write", 3 * CACHELINE, b"elsewhere")           # line 3 dirty
    pair.do_durable("write_atomic64", 72, 0xDEADBEEF)       # onto line 1
    assert volatile_lines(pair.real) == 1                    # line 3 only
    pair.do("write", 2048, b"x" * 100)
    pair.do("clwb", 2048, 100)
    pair.do_durable("write", 2050, b"yy")                   # onto flushing
    pair.do_durable("write", 4096, b"")                     # aligned, empty
    pair.do_durable("write", 4100, b"")                     # one line's clwb
    pair.do("write", 128, b"torn?" * 20)
    pair.crash("torn", 3)
    assert pair.real.read_silent(72, 8) == (0xDEADBEEF).to_bytes(8, "little")


#: ``(first byte, length, lines covered)`` of the directed durable stores:
#: 1, 2, 64 and 4 096 lines (the last crosses four 64 KB chunks), each
#: line-aligned and not.
RUNS = [(100 * CACHELINE, CACHELINE, 1), (100 * CACHELINE + 8, 8, 1)]
RUNS += [(line * CACHELINE + skew, (n - 1) * CACHELINE + (0 if skew else 64),
          n)
         for n, line in ((2, 300), (64, 1000), (4096, 5000))
         for skew in (0, 37)]


@pytest.mark.parametrize("end", ["discard", "torn", "fence, torn"])
@pytest.mark.parametrize("hook", [None, "on_persist", "on_persist_done"])
@pytest.mark.parametrize("nt", [False, True])
def test_durable_store_on_a_quiescent_device(nt, hook, end):
    """Nothing is volatile, so the run is held in flight — and is still
    the reference's ``write`` + ``persist`` to every observer: charges,
    stats, hook events with their ``volatile_lines``, and the media a
    crash leaves when it comes out of each hook — at once, or after a
    fence that retires the interrupted run only if it was written back
    (non-temporal, or interrupted after its ``clwb``)."""
    for addr, n, lines in RUNS:
        pair = Pair()
        pair.arm(None)
        # Durable content under the run, so a revert is not to zeros.
        pair.do_durable("write", addr - 64, bytes(range(1, 256)) * (n // 255 + 2))
        assert volatile_lines(pair.real) == 0
        pair.arm((hook, 1) if hook else None)
        persisted = pair.real.stats.lines_persisted
        crashed = pair.do_durable("write", addr, b"\xa5" * n, nt=nt)
        assert crashed == (hook is not None), (addr, n)
        assert pair.bodies == {"in flight": 2, "tables": 0, "held run": 0,
                               "fused over volatile": 0}
        assert ("on_persist", 2, lines) in pair.events[id(pair.real)][-3:]
        durable = hook in (None, "on_persist_done")
        assert volatile_lines(pair.real) == (0 if durable else lines)
        assert pair.real.stats.lines_persisted - persisted \
            == (lines if durable else 0)
        if end == "fence, torn":
            pair.do("sfence")
            durable = durable or nt or hook == "on_persist"
            assert volatile_lines(pair.real) == (0 if durable else lines)
        pair.crash(end.split(", ")[-1], 1000 + lines)   # compares all media
        kept = pair.real.read_silent(addr, n) == b"\xa5" * n
        assert kept if durable else (end != "discard" or not kept)


@pytest.mark.parametrize("under", ["dirty", "flushing"])
@pytest.mark.parametrize("hook", [None, "on_persist"])
def test_durable_store_on_volatile_lines_takes_the_tables(under, hook):
    """One volatile line anywhere — under the run or far from it — and
    the same stores go through the per-line tables, as before."""
    for addr, n, lines in RUNS:
        for at in (addr, addr + n - 1, 7 * CACHELINE):
            pair = Pair()
            pair.arm(None)
            pair.do("write", at, b"v", nt=under == "flushing")
            pair.arm((hook, 1) if hook else None)
            crashed = pair.do_durable("write", addr, b"\x5a" * n)
            assert crashed == (hook is not None)
            assert pair.bodies == {"in flight": 0, "tables": 1,
                                   "held run": under == "flushing",
                                   "fused over volatile": 0}
            pair.crash("torn", 2000 + lines)


# -- held runs: an nt store onto empty tables is one pre-image ---------------

#: ``(addr, n)`` of the runs :func:`_hold_runs` stores, oldest first: one
#: line, 12 lines straddling both ends, 64 lines.
HELD = [(3 * CACHELINE + 8, 8), (10 * CACHELINE + 5, 700),
        (40 * CACHELINE, 4096)]


def _hold_runs(pair, under=True):
    """The ``HELD`` runs (over durable content when ``under``), then two
    younger table lines, one dirty and one flushing."""
    if under:
        pair.do_durable("write", 0, bytes(range(1, 256)) * 60)
    for i, (addr, n) in enumerate(HELD):
        pair.do("write", addr, bytes([0xa0 + i]) * n, nt=True)
    real = pair.real
    assert [run[:2] for run in real._runs] == [(3, 4), (10, 22), (40, 104)]
    assert not real._shadow and volatile_lines(real) == 1 + 12 + 64
    pair.do("write", 130 * CACHELINE + 3, b"younger, dirty")
    pair.do("write", 150 * CACHELINE, b"younger, flushing", nt=True)
    assert len(real._runs) == 3 and len(real._shadow) == 2
    assert pair.bodies["held run"] == 3


@pytest.mark.parametrize("mode", ["discard", "torn"])
@pytest.mark.parametrize("onto", ["oldest", "newest"])
@pytest.mark.parametrize("by", ["cached", "nt", "durable", "clwb"])
def test_a_store_onto_a_held_run_spreads_every_run(by, onto, mode):
    """A store that overlaps a run needs its lines one by one: every run
    enters the tables — oldest first, ahead of the younger table lines —
    and the store goes on from there (on the plain device, a durable
    store fuses over them).  A ``clwb`` needs no line of a run, all of
    them flushing already, and leaves the runs held."""
    pair = Pair(plain=True)
    pair.arm(None)
    _hold_runs(pair)
    addr, n = ((3 * CACHELINE + 40, 8) if onto == "oldest"
               else (100 * CACHELINE + 9, 500))     # past the run's end
    if by == "clwb":
        pair.do("clwb", addr, n)
    elif by == "durable":
        pair.do_durable("write", addr, b"\x5d" * n)
    else:
        pair.do("write", addr, b"\x5d" * n, nt=by == "nt")
    assert bool(pair.real._runs) == (by == "clwb")
    assert pair.bodies["fused over volatile"] == (by == "durable")
    pair.crash(mode, 4000)


@pytest.mark.parametrize("trip", [None, "on_persist", "on_persist_done"])
@pytest.mark.parametrize("by", ["sfence", "durable"])
def test_a_fence_retires_every_held_run_whole(by, trip):
    """``sfence``, and a durable store elsewhere — hooked on the real
    device, fused on the plain one — make every run durable beside the
    flushing line and leave the dirty one; each line counts once, in
    ``lines_persisted`` and in wear.  Out of ``on_persist`` the runs are
    still held, out of ``on_persist_done`` durable."""
    pair = Pair(track_wear=True, plain=trip is None)   # no twin for a trip
    pair.arm(None)
    _hold_runs(pair)
    pair.arm((trip, 1) if trip else None)
    if by == "sfence":
        crashed = pair.do("sfence")
    else:
        crashed = pair.do_durable("write_atomic64", 200 * CACHELINE, 7)
    assert crashed == (trip is not None)
    assert bool(pair.real._runs) == (trip == "on_persist")
    if trip is None:
        assert not pair.plain._runs
        assert pair.bodies["fused over volatile"] == (by == "durable")
    held = 1 + 12 + 64 + 1 + (by == "durable")      # + flushing lines
    assert volatile_lines(pair.real) == (1 + held if trip == "on_persist"
                                        else 1)
    pair.crash("torn", 5000)


@pytest.mark.parametrize("mode", ["discard", "torn"])
@pytest.mark.parametrize("under", [True, False])
def test_a_crash_reverts_held_runs_before_younger_lines(mode, under):
    """The runs became volatile before every table line: a torn crash
    draws their words first, run by run, then the tables' — the
    reference's order."""
    pair = Pair(plain=True)
    pair.arm(None)
    _hold_runs(pair, under)
    pair.crash(mode, 6000)


def test_an_image_leaves_held_runs_out(tmp_path):
    """``save_image`` writes the durable content under every run, leaves
    the device as it was, and a later fence still retires the runs."""
    pair = Pair()
    pair.arm(None)
    _hold_runs(pair)
    before = pair.real.read_silent(0, SIZE)
    pair.real.save_image(tmp_path / "runs.img")
    assert pair.real.read_silent(0, SIZE) == before
    assert volatile_lines(pair.real) == volatile_lines(pair.ref)
    durable = bytearray(pair.ref.media())
    for line, content in pair.ref.shadow.items():
        durable[line * CACHELINE:(line + 1) * CACHELINE] = content
    loaded = PMDevice.load_image(tmp_path / "runs.img")
    assert loaded.read_silent(0, SIZE) == durable
    pair.do("sfence")
    assert volatile_lines(pair.real) == 1
    pair.crash("torn", 7000)


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
        assert volatile_lines(pair.real) > 140
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
    assert (loaded.size, loaded.model, volatile_lines(loaded)) \
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


# -- lifetime: close() hands the mapping to the next device of its size -----

ODD_SIZE = SIZE + 3 * CACHELINE     # the last chunk is three lines long


@pytest.fixture
def idle():
    """The module's idle list, empty before the test and after it."""
    device_module._idle.clear()
    yield device_module._idle
    device_module._idle.clear()


def _zero_digest(size):
    return hashlib.sha256(PerLineDevice(size, clock=SimClock()).media()).digest()


def _assert_fresh(dev, size):
    """Indistinguishable from a device on a mapping of its own."""
    assert hashlib.sha256(dev.read_silent(0, size)).digest() \
        == _zero_digest(size)
    assert dev.stats == PMStats()
    assert (dev.clock.now_ns, dev.clock.charged_ns) == (0.0, 0.0)
    assert (dev.hooks.on_persist, dev.hooks.on_persist_done) == (None, None)
    assert volatile_lines(dev) == 0
    assert not (dev._shadow or dev._dirty or dev._flushing or dev._runs
                or dev._stored or dev._in_flight)
    dev.write(0, b"usable")
    with pytest.raises(RuntimeError, match="did not crash"):
        dev.recover_view()


def _a_lifetime(rng, dev, tmp_path):
    """Stores anywhere (the last byte, across chunk boundaries), durable
    and not, a torn crash, an image written with lines still volatile."""
    size, chunk = dev.size, device_module._CHUNK
    dev.hooks.on_persist = lambda count, d: None
    dev.write(size - 1, b"\xff", persist=rng.random() < 0.5)
    for _ in range(rng.randint(1, 12)):
        n = rng.choice((1, 8, 64, 4096, 3 * chunk + 5))
        if rng.random() < 0.4:      # straddle a chunk boundary
            addr = rng.randrange(1, size // chunk) * chunk - rng.randint(1, n)
        else:
            addr = rng.randrange(size - n)
        addr = max(0, min(addr, size - n))
        dev.write(addr, rng.randbytes(n), nt=rng.random() < 0.5,
                  persist=rng.random() < 0.5)
    if rng.random() < 0.5:
        dev.crash("torn", rng=np.random.default_rng(rng.getrandbits(32)))
        dev.recover_view()
        dev.write(rng.randrange(size - 8), b"after!")
    if rng.random() < 0.5:
        dev.save_image(tmp_path / "mid.img")        # rolls back, restores


@pytest.mark.parametrize("size", [SIZE, ODD_SIZE])
def test_closed_devices_mapping_serves_the_next_device_all_zero(
        size, idle, tmp_path):
    rng = random.Random(size)
    first = PMDevice(size, track_wear=True)
    mapping = _buffer_owner(first)
    dev = first
    for life in range(12):
        assert _buffer_owner(dev) is mapping, life  # recycled, every time
        _a_lifetime(rng, dev, tmp_path)
        dev.close()
        assert idle == [mapping]
        dev = PMDevice(size, clock=SimClock(), track_wear=life % 2 == 0)
        assert idle == []
        _assert_fresh(dev, size)
    assert isinstance(mapping, mmap.mmap) and len(mapping) == size


def test_loaded_and_half_loaded_images_are_cleared_too(idle, tmp_path):
    src = PMDevice(ODD_SIZE)
    src.write(ODD_SIZE - 70, b"\xee" * 70, persist=True)
    for addr in range(0, ODD_SIZE - 4096, 50_000):
        src.write(addr, b"\xdd" * 4096, persist=True)
    path = tmp_path / "full.img"
    src.save_image(path)
    raw = path.read_bytes()

    loaded = PMDevice.load_image(path)
    assert loaded.read_silent(0, ODD_SIZE) == src.read_silent(0, ODD_SIZE)
    loaded.close()
    _assert_fresh(PMDevice(ODD_SIZE, clock=SimClock()), ODD_SIZE)

    # Cut in the body: readinto() has filled most of a mapping — possibly
    # one taken from the idle list — before load_image can tell.
    PMDevice(ODD_SIZE).close()
    (mapping,) = idle
    cut = tmp_path / "cut.img"
    cut.write_bytes(raw[:-1000])
    with pytest.raises(ValueError, match="truncated image"):
        PMDevice.load_image(cut)
    assert idle == [mapping]        # closed, cleared, idle again
    _assert_fresh(PMDevice(ODD_SIZE, clock=SimClock()), ODD_SIZE)

    PMDevice(ODD_SIZE).close()
    cut.write_bytes(raw + bytes(100))
    with pytest.raises(ValueError, match="100 bytes after the image"):
        PMDevice.load_image(cut)
    _assert_fresh(PMDevice(ODD_SIZE, clock=SimClock()), ODD_SIZE)


def test_a_device_of_another_size_gets_a_mapping_of_its_own(idle):
    small = PMDevice(SIZE)
    small.write(0, b"x" * 100, persist=True)
    mapping = _buffer_owner(small)
    small.close()
    other = PMDevice(2 * SIZE)
    assert _buffer_owner(other) is not mapping and idle == [mapping]
    assert len(_buffer_owner(other)) == 2 * SIZE
    assert _buffer_owner(PMDevice(SIZE)) is mapping


def test_idle_list_stays_within_its_bound(idle):
    bound = device_module._IDLE_BYTES
    for size in (bound // 4, bound // 2, bound // 4 + CACHELINE, bound // 2,
                 bound // 8, bound, bound + CACHELINE, bound // 4):
        for dev in (PMDevice(size), PMDevice(size)):
            dev.write(size - 8, b"12345678")
            before = list(idle)
            dev.close()
            assert sum(map(len, idle)) <= bound
            if size <= bound:       # idled, the oldest evicted to fit
                assert len(idle[-1]) == size
                assert idle[:-1] == before[len(before) - len(idle) + 1:]
            else:                   # dropped, and nothing evicted for it
                assert idle == before


def test_a_mapping_still_viewed_elsewhere_is_not_recycled(idle):
    for view_of in (lambda d: d._mem[100:200],          # an array slice
                    lambda d: d._bytes[100:200],        # a memoryview slice
                    lambda d: memoryview(_buffer_owner(d))):
        dev = PMDevice(SIZE)
        dev.write(150, b"still here", persist=True)
        mapping = _buffer_owner(dev)
        view = view_of(dev)
        dev.close()
        assert idle == []
        # Dropped as before close() existed: the view keeps its memory,
        # untouched, and the next device has a mapping of its own.
        assert bytes(mapping[150:160]) == b"still here"
        nxt = PMDevice(SIZE)
        assert _buffer_owner(nxt) is not mapping
        _assert_fresh(nxt, SIZE)
        del view
