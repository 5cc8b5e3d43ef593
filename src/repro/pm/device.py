"""Emulated byte-addressable persistent-memory device.

Persistence semantics follow x86 + Optane:

* Stores land in a **volatile CPU cache**.  They are visible to subsequent
  reads immediately but are *not durable*.
* ``clwb(addr)`` schedules a cache line for write-back; the line is durable
  only after the next ``sfence()``.
* Non-temporal stores (``write(..., nt=True)``) bypass the cache but still
  require ``sfence()`` for durability.
* Aligned 8-byte stores are atomic — a crash never tears them (the basis
  of NOVA's atomic log-tail update and DeNova's UC/RFC updates).

Crash modelling
---------------
:meth:`PMDevice.crash` reverts every non-durable line to its last durable
content (``discard`` mode), or — in the adversarial ``torn`` mode — lets an
arbitrary subset of *aligned 8-byte words* of each non-durable line reach
the media, which is the strictest legal x86 behaviour.  Recovery code is
tested under both.

Implementation notes (per the HPC guides: views over copies, vectorized
bulk paths): logical content lives in one NumPy ``uint8`` array over a
private anonymous mapping, which the kernel zeroes page by page on first
touch — a device costs the pages it touches, not its size; only
*volatile* lines carry a copy of their durable content, so bulk writes
stay O(bytes touched) with no full-device copies.  The device pays per
store, not per line, wherever nothing needs a line on its own.  A
non-temporal store onto empty per-line tables — NOVA's copy-on-write
data copy — is a *held run*: first line, end line, one ``bytes``
pre-image, retired whole by the next fence and spread into the tables
(oldest first) only by an overlapping store, ``crash`` or
``save_image``.  The tables are a ``line -> durable bytes`` shadow and
the ``dirty`` / ``flushing`` sets, *updated per run*: a store snapshots
the lines it covers in one slice of the line-typed view of the array
and moves them with one set operation (a store inside one line — most
are — does both by that line's key alone); a fence that leaves nothing
dirty drops the whole shadow at once; a crash restores all volatile
lines in one scatter.  A run is made only while the shadow is empty, so
it is older than every table line: runs, then shadow keys, are the
order lines first became volatile — the order ``crash("torn")`` draws
its random words in.  ``write(..., persist=True)`` is store + clwb +
sfence in one call, held to the charges, counters and hook order of the
three; with no ``on_persist`` hook on a clock that folds
it is one integer charge and no pre-image whatever else is volatile
(its fence commits its own lines, the flushing ones and the runs), and
otherwise, on a device with nothing volatile, its run enters the tables
only if a hook interrupts it.  Work that is *n* identical steps is one
call: a run of ``clwb`` charges is one ``SimClock.advance_n`` (one
multiplication), ``read_view`` lends a large range out for decoding in
place — each counted and charged as the per-line form or the ``read``
it stands for.

Lifetime: whoever builds devices in a loop ends each with
:meth:`PMDevice.close`, which hands the mapping — cleared where it was
stored to — to the next device of that size, already faulted in (so
does a :meth:`PMDevice.fork`).  A device nobody closes gives its memory
back to the kernel when dropped.
"""

from __future__ import annotations

import mmap
import struct
from collections import deque
from dataclasses import dataclass, replace
from typing import Callable, NoReturn, Optional

import numpy as np

from repro.pm.clock import SimClock, fs_of
from repro.pm.latency import LatencyModel, OPTANE_DCPM, PROFILES

__all__ = ["PMDevice", "PMStats", "CrashRequested", "CACHELINE"]

CACHELINE = 64
_WORD = 8
_WORDS_PER_LINE = CACHELINE // _WORD
_LINE = np.dtype(f"V{CACHELINE}")  # one cache line as one array element

# Exhaust an iterator at C speed (the itertools "consume" recipe).
_consume = deque(maxlen=0).extend

# Stores are noted per chunk of this many lines (64 KB) so that close()
# clears what was stored to, not the device: a line index >> the shift
# is its chunk.
_CHUNK_SHIFT = 10
_CHUNK = CACHELINE << _CHUNK_SHIFT
# Mappings of closed devices, all zeros, oldest first, for the next
# device of the same size; together never more than _IDLE_BYTES (a
# sweep's 8-32 MB devices fit, a 256 MB one is simply dropped).
_IDLE_BYTES = 64 << 20
_idle: list[mmap.mmap] = []


def _take_idle(size: int) -> Optional[mmap.mmap]:
    for i, mapping in enumerate(_idle):
        if len(mapping) == size:
            return _idle.pop(i)
    return None


def _recycle(mapping: mmap.mmap, stored: set[int]) -> None:
    """Idle a closed device's mapping, cleared where ``stored`` says it
    was written; drop it if it cannot fit or is still viewed elsewhere."""
    size = len(mapping)
    if size > _IDLE_BYTES:
        return
    try:
        # A same-size resize moves nothing, and mmap refuses it while
        # any buffer of the mapping is exported: the next device must
        # not share memory with a view that outlived this one.
        mapping.resize(size)
    except (BufferError, SystemError, OSError):
        return
    zeros = bytes(_CHUNK)
    for chunk in stored:
        lo = chunk * _CHUNK
        hi = min(lo + _CHUNK, size)
        mapping[lo:hi] = zeros[:hi - lo]
    held = size + sum(map(len, _idle))
    while held > _IDLE_BYTES:
        held -= len(_idle.pop(0))
    _idle.append(mapping)


class _Costs(dict):
    """Access size -> ``(fs_of(cost(size)), cost(size))``, each computed
    on first use, not per access."""

    def __init__(self, cost: Callable[[int], float]):
        self._cost = cost

    def __missing__(self, n: int) -> tuple[int, float]:
        self[n] = charge = (fs_of(self._cost(n)), self._cost(n))
        return charge


class CrashRequested(Exception):
    """Raised by a crash-injection hook to simulate sudden power loss."""

    def __init__(self, point: str = "", count: int = -1):
        super().__init__(f"injected crash at {point!r} #{count}")
        self.point = point
        self.count = count


@dataclass
class PMStats:
    """Cumulative device activity counters (reset with a new device)."""

    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    nt_writes: int = 0
    clwbs: int = 0
    sfences: int = 0
    lines_persisted: int = 0
    crashes: int = 0

    def snapshot(self) -> dict:
        return dict(self.__dict__)


@dataclass
class PMHooks:
    """Injection points for the failure framework.

    Each hook receives ``(event_count, device)`` and may raise
    :class:`CrashRequested`.  ``on_persist`` fires on every sfence that
    commits at least one line, *before* the commit takes effect (a crash
    there leaves the lines volatile); ``on_persist_done`` fires after.
    A hook looks (``stats``, ``read_silent``, ``fork``) or raises; it
    does not operate the device it is called from — inside a durable
    store the lines in flight are in no table until it raises (or a
    ``fork`` enters them into its own).
    """

    on_persist: Optional[Callable[[int, "PMDevice"], None]] = None
    on_persist_done: Optional[Callable[[int, "PMDevice"], None]] = None


class PMDevice:
    """A byte-addressable PM device with cache-line persistence tracking."""

    def __init__(
        self,
        size: int,
        model: LatencyModel = OPTANE_DCPM,
        clock: Optional[SimClock] = None,
        track_wear: bool = False,
    ):
        if size <= 0 or size % CACHELINE:
            raise ValueError(f"size must be a positive multiple of {CACHELINE}")
        self.size = size
        self.model = model
        self.clock = clock if clock is not None else SimClock()
        # Every charge as (fs, ns) for SimClock.charge_fs.
        self._read_costs = _Costs(model.read_cost)
        self._write_costs = _Costs(model.write_cost)
        self._clwb = (fs_of(model.clwb_ns), model.clwb_ns)
        self._sfence = (fs_of(model.sfence_ns), model.sfence_ns)
        self.stats = PMStats()
        self.hooks = PMHooks()
        # All zeros either way: a closed device's mapping, cleared and
        # already faulted in, or a fresh one the kernel zeroes on first
        # touch.  Private, not Python's default MAP_SHARED (shmem-backed:
        # slower faults, pages charged to the page cache); huge pages
        # keep bulk data stores from paying one 4 KB fault per page.
        mapping = _take_idle(size)
        if mapping is None:
            mapping = mmap.mmap(-1, size,
                                flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
            if hasattr(mmap, "MADV_HUGEPAGE"):
                mapping.madvise(mmap.MADV_HUGEPAGE)
        self._mapping: Optional[mmap.mmap] = mapping  # None once closed
        # Every export of the mapping hangs off this one array, so
        # dropping the device's views leaves the mapping unviewed.
        self._mem = np.frombuffer(mapping, dtype=np.uint8)
        # The same buffer (views, no second copy of the device): as a
        # memoryview, whose slices move bytes without building an array
        # per access, and as one element per cache line.
        self._bytes = memoryview(self._mem)
        self._mem_lines = self._mem.view(_LINE)
        # line index -> durable content of that line (bytes), present only
        # while the line has non-durable stores: its keys are always
        # exactly ``_dirty | _flushing``.
        self._shadow: dict[int, bytes] = {}
        self._dirty: set[int] = set()     # stored, not yet clwb'd
        self._flushing: set[int] = set()  # clwb'd / nt-stored, not yet fenced
        # Held runs, oldest first: (first line, end line, durable content
        # of those lines) of each nt store made while the shadow was
        # empty — flushing lines older than every shadow key, outside it.
        self._runs: list[tuple[int, int, bytes]] = []
        # A durable store's lines on their way to the media, in none of
        # the three tables (see ``write``); None outside that call.
        self._in_flight: Optional[list] = None
        self._stored: set[int] = set()    # chunks ever stored to
        self._wear: Optional[np.ndarray] = (
            np.zeros(size // CACHELINE, dtype=np.uint32) if track_wear else None
        )
        self._crashed = False

    def close(self) -> None:
        """End the device and hand its memory to the next one.

        For the code that built the device, once it is done with it: a
        closed device refuses every call.  The mapping, cleared in the
        chunks that were stored to, waits for the next device of this
        size — unless a view of it (a ``read_view`` someone kept) is
        still alive (see ``_recycle``); closing twice is a no-op.
        """
        mapping = self._mapping
        if mapping is None:
            return
        # Closed is crashed for good: the data path's one state check
        # covers it, and recover_view() refuses.
        self._crashed = True
        self._mapping = self._mem = self._bytes = self._mem_lines = None
        _recycle(mapping, self._stored)

    # -- internals -----------------------------------------------------------

    def _check_open(self) -> None:
        if self._mapping is None:
            raise RuntimeError("device is closed")

    def _refuse(self) -> NoReturn:
        """A call that needs a live device found it crashed (or closed)."""
        self._check_open()
        raise RuntimeError("device has crashed; call recover_view() first")

    def _check_range(self, addr: int, n: int) -> None:
        if self._crashed:
            self._refuse()
        if addr < 0 or n < 0 or addr + n > self.size:
            raise ValueError(f"access [{addr}, {addr + n}) out of device bounds")

    def _lines(self, addr: int, n: int) -> range:
        return range(addr // CACHELINE, (addr + n - 1) // CACHELINE + 1)

    def _volatile_words(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The device as rows of words, one row per line; the volatile
        lines' row numbers; and those lines' durable content as rows."""
        words = self._mem.view(np.uint64).reshape(-1, _WORDS_PER_LINE)
        lines = np.fromiter(self._shadow, dtype=np.intp,
                            count=len(self._shadow))
        durable = np.frombuffer(b"".join(self._shadow.values()),
                                dtype=np.uint64)
        return words, lines, durable.reshape(-1, _WORDS_PER_LINE)

    # -- data path -------------------------------------------------------------

    def read(self, addr: int, n: int) -> bytes:
        """Read ``n`` bytes; charges one request of read latency + bandwidth."""
        if self._crashed:
            self._refuse()
        end = addr + n
        if addr < 0 or n < 0 or end > self.size:
            raise ValueError(f"access [{addr}, {end}) out of device bounds")
        stats = self.stats
        stats.reads += 1
        stats.bytes_read += n
        fs, ns = self._read_costs[n]
        self.clock.charge_fs(fs, ns)
        return self._bytes[addr:end].tobytes()

    def read_view(self, addr: int, n: int) -> memoryview:
        """:meth:`read` — its checks, counters and charge — without the
        copy: a read-only view of the device's own bytes, for a caller
        that decodes a large range, takes what it needs and lets go.

        The view shows later stores, and a device closed while one is
        alive does not hand its memory on (see :meth:`close`): never
        keep one.
        """
        # read's body, not a call from it: read is the hot path.
        if self._crashed:
            self._refuse()
        end = addr + n
        if addr < 0 or n < 0 or end > self.size:
            raise ValueError(f"access [{addr}, {end}) out of device bounds")
        stats = self.stats
        stats.reads += 1
        stats.bytes_read += n
        fs, ns = self._read_costs[n]
        self.clock.charge_fs(fs, ns)
        return self._bytes[addr:end].toreadonly()

    def read_silent(self, addr: int, n: int) -> bytes:
        """Read without charging cost (debug/verification use only)."""
        self._check_open()
        if addr < 0 or n < 0 or addr + n > self.size:
            raise ValueError("out of bounds")
        return self._bytes[addr:addr + n].tobytes()

    def write(self, addr: int, data: bytes | bytearray | memoryview,
              nt: bool = False, persist: bool = False) -> None:
        """Store ``data`` at ``addr``.

        ``nt=True`` models non-temporal (streaming) stores: the affected
        lines skip the cache and only await the next fence.  Used for bulk
        data-page copies, as NOVA does with ``movnt``.

        ``persist=True`` makes the store durable before returning: the
        store, then the ``clwb`` of exactly its lines, then the
        ``sfence`` — what ``write(addr, data, nt)`` followed by
        ``persist(addr, len(data))`` does, charge for charge and hook for
        hook, in one call.
        """
        if self._crashed:
            self._refuse()
        n = len(data)
        end = addr + n
        if addr < 0 or end > self.size:
            raise ValueError(f"access [{addr}, {end}) out of device bounds")
        if n == 0:
            if persist:
                self.persist(addr, 0)
            return
        stats = self.stats
        stats.writes += 1
        stats.bytes_written += n
        # A memoryview slice takes bytes as they are; only re-materialize
        # other buffer types (profiled hot path — see the HPC guides).
        if not isinstance(data, bytes):
            data = bytes(data)
        shadow, dirty, flushing = self._shadow, self._dirty, self._flushing
        runs = self._runs
        first, last = addr // CACHELINE, (end - 1) // CACHELINE
        clock, hooks = self.clock, self.hooks
        if runs:
            for at, stop, _ in runs:
                if at <= last and first < stop:
                    self._spread()  # this store needs line precision
                    break
        # A durable store with no hook to raise and no recorder to hand
        # charges to is one integer charge and no pre-image, whatever
        # else is volatile: its fence commits its own lines, the
        # flushing ones and the held runs.
        fused = persist and hooks.on_persist is None and clock.folds
        if fused or persist and not shadow and not runs:
            count = last - first + 1
            if count == 1:
                self._stored.add(first >> _CHUNK_SHIFT)
            else:
                self._stored.update(range(first >> _CHUNK_SHIFT,
                                          (last >> _CHUNK_SHIFT) + 1))
            if nt:
                stats.nt_writes += 1
            if fused:
                self._bytes[addr:end] = data
                stats.clwbs += count
                stats.sfences += 1
                clock.charge_fs(self._write_costs[n][0]
                                + count * self._clwb[0] + self._sfence[0])
                if shadow or runs:
                    self._commit_beside(first, last)
            else:
                # A hook or a recording clock, and nothing else volatile
                # — the state NOVA-style code is in before most of its
                # stores.  The lines are volatile only inside this call,
                # so they are held *in flight* (in no table) and one
                # pre-image of the run stands for their shadow; only a
                # hook that raises — nothing else can observe them — has
                # them spread over the tables, as the stores below would
                # have left them at that point.
                durable = self._bytes[first * CACHELINE:
                                      (last + 1) * CACHELINE].tobytes()
                self._bytes[addr:end] = data
                # _land's arguments, for the except below or a fork.
                flight = self._in_flight = [first, last + 1, durable, nt]
                try:
                    clock.charge_fs(*self._write_costs[n])
                    stats.clwbs += count
                    # One charge per line (see _write_back).
                    if count == 1:
                        clock.charge_fs(*self._clwb)
                    else:
                        clock.advance_n(self.model.clwb_ns, count)
                    flight[3] = True
                    stats.sfences += 1
                    clock.charge_fs(*self._sfence)
                    if hooks.on_persist is not None:
                        hooks.on_persist(stats.sfences, self)
                except BaseException:
                    self._land(*flight)
                    raise
                finally:
                    self._in_flight = None
            if self._wear is not None:
                self._wear[first:last + 1] += 1
            stats.lines_persisted += count
            if hooks.on_persist_done is not None:
                hooks.on_persist_done(stats.sfences, self)
            return
        if nt and not persist and not shadow:
            # A held run: the next fence retires it whole, so one
            # pre-image stands for its lines until something needs them
            # one by one (see _spread).
            self._stored.update(range(first >> _CHUNK_SHIFT,
                                      (last >> _CHUNK_SHIFT) + 1))
            runs.append((first, last + 1,
                         self._bytes[first * CACHELINE:
                                     (last + 1) * CACHELINE].tobytes()))
            self._bytes[addr:end] = data
            stats.nt_writes += 1
            clock.charge_fs(*self._write_costs[n])
            return
        # Snapshot the durable content of the lines stored to (lines that
        # are already volatile keep their older, durable snapshot) and
        # note them as stored.  A cached store to a line with an
        # in-flight clwb invalidates that write-back: the line must be
        # clwb'd again to become durable.  (Under-approximating
        # durability is the safe direction for crash testing — we never
        # falsely persist.)
        if first == last:
            # Inside one line — 8-byte atomics, 64 B log and FACT
            # entries, flag bytes: most stores — key by key.
            lines = None
            if first not in shadow:     # else noted when it got there
                self._stored.add(first >> _CHUNK_SHIFT)
                base = first * CACHELINE
                shadow[first] = self._bytes[base:base + CACHELINE].tobytes()
            if nt:
                flushing.add(first)
                dirty.discard(first)
            else:
                flushing.discard(first)
                dirty.add(first)
        else:
            # A run of lines: one slice, one set operation.
            lines = range(first, last + 1)
            self._stored.update(range(first >> _CHUNK_SHIFT,
                                      (last >> _CHUNK_SHIFT) + 1))
            _consume(map(shadow.setdefault, lines,
                         self._mem_lines[first:last + 1].tolist()))
            # (A set operation against a range walks the whole range,
            # even when the set is empty.)
            if nt:
                flushing.update(lines)
                if dirty:
                    dirty.difference_update(lines)
            else:
                if flushing:
                    flushing.difference_update(lines)
                dirty.update(lines)
        self._bytes[addr:end] = data
        if nt:
            stats.nt_writes += 1
        clock.charge_fs(*self._write_costs[n])
        if not persist:
            return
        if lines is None:
            stats.clwbs += 1
            clock.charge_fs(*self._clwb)
            if first in dirty:
                dirty.remove(first)
                flushing.add(first)
        else:
            self._write_back(lines)
        self._fence()

    def write_atomic64(self, addr: int, value: int,
                       persist: bool = False) -> None:
        """Aligned 8-byte store — atomic with respect to crashes."""
        if addr % _WORD:
            raise ValueError(f"atomic 64-bit store must be 8-aligned: {addr}")
        self.write(addr, int(value).to_bytes(8, "little"), False, persist)

    def zero_range(self, addr: int, n: int, persist: bool = False) -> None:
        """Store zeros over a range (page initialization), non-temporal."""
        self.write(addr, bytes(n), True, persist)

    # -- persistence ------------------------------------------------------------

    def clwb(self, addr: int, n: int = CACHELINE) -> None:
        """Initiate write-back of every cache line covering ``[addr, addr+n)``."""
        self._check_range(addr, n)
        self._write_back(self._lines(addr, n))

    def _write_back(self, lines: range) -> None:
        self.stats.clwbs += len(lines)
        self.clock.advance_n(self.model.clwb_ns, len(lines))
        if self._dirty:
            written_back = self._dirty.intersection(lines)
            self._dirty -= written_back
            self._flushing |= written_back

    def sfence(self) -> None:
        """Drain pending write-backs; everything clwb'd/nt-stored is durable."""
        if self._crashed:
            self._refuse()
        self._fence()

    def _fence(self) -> None:
        self.stats.sfences += 1
        self.clock.charge_fs(*self._sfence)
        if not self._flushing and not self._runs:
            return
        count = self.stats.sfences
        if self.hooks.on_persist is not None:
            self.hooks.on_persist(count, self)
        self._commit()
        if self.hooks.on_persist_done is not None:
            self.hooks.on_persist_done(count, self)

    def _commit(self) -> None:
        """Make every flushing line and every held run durable."""
        flushing, wear = self._flushing, self._wear
        persisted = len(flushing)
        if flushing:
            if self._dirty:
                _consume(map(self._shadow.__delitem__, flushing))
            else:
                self._shadow.clear()
            if wear is not None:
                wear[np.fromiter(flushing, dtype=np.intp,
                                 count=persisted)] += 1
            flushing.clear()
        for first, stop, _ in self._runs:
            persisted += stop - first
            if wear is not None:
                wear[first:stop] += 1
        self._runs.clear()
        self.stats.lines_persisted += persisted

    def _commit_beside(self, first: int, last: int) -> None:
        """The fence of a fused durable store onto volatile lines: the
        store's own lines ``first..last`` leave the tables (its caller
        counts them), then every flushing line and held run commits;
        dirty lines stay as they are."""
        shadow, dirty, flushing = self._shadow, self._dirty, self._flushing
        if first == last:
            if first in shadow:
                del shadow[first]
                dirty.discard(first)
                flushing.discard(first)
        elif shadow:
            own = range(first, last + 1)
            if len(own) < len(shadow):
                mine = [line for line in own if line in shadow]
            else:
                mine = [line for line in shadow if line in own]
            _consume(map(shadow.__delitem__, mine))
            dirty.difference_update(mine)
            flushing.difference_update(mine)
        if flushing or self._runs:
            self._commit()

    def _spread(self) -> None:
        """Enter every held run line by line, as the tables would hold
        it: its lines ``flushing``, their pre-images in the shadow oldest
        run first and ahead of every table line (all of them younger)."""
        runs, shadow = self._runs, self._shadow
        if not runs:
            return
        younger = list(shadow.items())
        shadow.clear()
        for first, stop, durable in runs:
            lines = range(first, stop)
            shadow.update(zip(lines, np.frombuffer(durable, _LINE).tolist()))
            self._flushing.update(lines)
        shadow.update(younger)
        runs.clear()

    def _land(self, first: int, stop: int, durable: bytes,
              flushing: bool) -> None:
        """Enter a durable store's lines in flight into the (empty)
        tables, as a hook raising out of that store leaves them."""
        run = range(first, stop)
        self._shadow.update(zip(run, (
            durable[at:at + CACHELINE]
            for at in range(0, len(durable), CACHELINE))))
        (self._flushing if flushing else self._dirty).update(run)

    def persist(self, addr: int, n: int) -> None:
        """clwb the range then sfence — for a commit of several stores;
        one store is ``write(..., persist=True)``."""
        self.clwb(addr, n)
        self.sfence()

    # -- typed helpers -----------------------------------------------------------

    def read_u64(self, addr: int) -> int:
        return int.from_bytes(self.read(addr, 8), "little")

    def write_u32(self, addr: int, value: int, persist: bool = False) -> None:
        self.write(addr, int(value).to_bytes(4, "little"), False, persist)

    # -- crash & recovery ----------------------------------------------------------

    def crash(self, mode: str = "discard",
              rng: Optional[np.random.Generator] = None) -> None:
        """Simulate sudden power loss.

        ``discard``: every non-durable line reverts to its durable content.
        ``torn``: for each non-durable line, each aligned 8-byte word
        independently either persists or reverts (seeded ``rng``) — the
        strictest legal x86 outcome.
        """
        self._check_open()
        if mode not in ("discard", "torn"):
            raise ValueError(f"unknown crash mode {mode!r}")
        if mode == "torn" and rng is None:
            rng = np.random.default_rng(0)
        self.stats.crashes += 1
        self._spread()
        if self._shadow:
            words, lines, survives = self._volatile_words()
            if mode == "torn":
                # One draw of a line's eight words per volatile line, in
                # the order the lines first became volatile.
                keep_new = np.array(
                    [rng.integers(0, 2, size=_WORDS_PER_LINE, dtype=np.uint8)
                     for _ in lines], dtype=bool)
                survives = np.where(keep_new, words[lines], survives)
            words[lines] = survives
        self._shadow.clear()
        self._dirty.clear()
        self._flushing.clear()
        self._crashed = True

    def recover_view(self) -> "PMDevice":
        """Reopen the device after a crash (same media, fresh cache state)."""
        self._check_open()
        if not self._crashed:
            raise RuntimeError("recover_view() on a device that did not crash")
        self._crashed = False
        return self

    def fork(self) -> "PMDevice":
        """A new device in the state a ``CrashRequested`` raised by the
        hook now running would leave this one in, to crash while the
        workload goes on: the stored chunks copied into a mapping from
        the idle pool, a fresh :class:`SimClock` at this one's time, the
        stats copied, no hooks."""
        self._check_open()
        clock, mine = SimClock(), self.clock
        clock.now_fs, clock.charged_fs = mine.now_fs, mine.charged_fs
        twin = PMDevice(self.size, self.model, clock)
        for chunk in self._stored:
            at = chunk * _CHUNK
            twin._bytes[at:at + _CHUNK] = self._bytes[at:at + _CHUNK]
        twin.stats = replace(self.stats)
        twin._shadow = dict(self._shadow)
        twin._dirty, twin._flushing = set(self._dirty), set(self._flushing)
        twin._runs, twin._stored = list(self._runs), set(self._stored)
        twin._crashed = self._crashed
        twin._wear = None if self._wear is None else self._wear.copy()
        if self._in_flight:
            twin._land(*self._in_flight)
        return twin

    def media_key(self) -> tuple:
        """The media as a value: two devices of one size whose keys are
        equal hold byte-identical media (what no store reached is zero)."""
        self._check_open()
        chunks = sorted(self._stored)
        return tuple(chunks), b"".join(
            self._bytes[at:at + _CHUNK] for at in (c * _CHUNK for c in chunks))

    # -- image persistence -----------------------------------------------------

    _IMAGE_MAGIC = b"DENOVAPM"

    def save_image(self, path) -> None:
        """Serialize the *durable* state to a file.

        Only persisted bytes are written: anything still volatile in the
        cache is intentionally dropped, so a saved image is exactly what
        a power cycle would leave (callers wanting everything should
        fence first).
        """
        self._check_open()
        self._spread()
        # Temporarily roll back to durable content for the dump.
        words, lines, durable = self._volatile_words()
        volatile = words[lines]
        words[lines] = durable
        try:
            name = self.model.name.encode()
            with open(path, "wb") as fh:
                fh.write(self._IMAGE_MAGIC)
                fh.write(struct.pack("<QB", self.size, len(name)))
                fh.write(name)
                self._mem.tofile(fh)
        finally:
            words[lines] = volatile

    @classmethod
    def load_image(cls, path, clock: Optional[SimClock] = None
                   ) -> "PMDevice":
        """Reopen a device image saved with :meth:`save_image`."""
        with open(path, "rb") as fh:
            if fh.read(8) != cls._IMAGE_MAGIC:
                raise ValueError(f"{path}: not a PM device image")
            header = fh.read(9)
            if len(header) < 9:
                raise ValueError(f"{path}: truncated image")
            size, name_len = struct.unpack("<QB", header)
            name = fh.read(name_len)
            if len(name) < name_len:
                raise ValueError(f"{path}: truncated image")
            model_name = name.decode(errors="replace")
            model = PROFILES.get(model_name)
            if model is None:
                raise ValueError(f"{path}: unknown device model "
                                 f"{model_name!r}")
            dev = cls(size, model=model, clock=clock)
            try:
                # Noted before the first byte lands: close() must clear a
                # half-read image too.
                dev._stored.update(range(-(-size // _CHUNK)))
                if fh.readinto(dev._bytes) != size:
                    raise ValueError(f"{path}: truncated image")
                extra = fh.seek(0, 2) - (len(cls._IMAGE_MAGIC) + len(header)
                                         + name_len + size)
                if extra:
                    raise ValueError(f"{path}: {extra} bytes after the image")
            except BaseException:
                dev.close()
                raise
        return dev

    def wear_max(self) -> int:
        """Highest per-line persist count (endurance proxy)."""
        self._check_open()
        if self._wear is None:
            raise RuntimeError("device created with track_wear=False")
        return int(self._wear.max())

    def wear_total(self) -> int:
        self._check_open()
        if self._wear is None:
            raise RuntimeError("device created with track_wear=False")
        return int(self._wear.sum())
