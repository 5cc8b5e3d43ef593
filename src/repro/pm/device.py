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
*volatile* lines carry a shadow copy of their durable content, so bulk
writes stay O(bytes touched) with no full-device copies.  Volatility is
tracked per cache line but *updated per run*: a store snapshots the
durable content of every line it covers in one slice of the line-typed
view of the array and moves the run between the ``dirty`` / ``flushing``
sets with one set operation (a store inside one line — most are — does
both by that line's key alone); a fence that leaves nothing dirty drops
the whole shadow at once; a crash restores all volatile lines in one
scatter.  ``write(..., persist=True)`` is store + clwb + sfence in one
call, held to the charges, counters and hook order of the three.
The shadow's key order is the order lines first became volatile — the
order ``crash("torn")`` draws its random words in.
"""

from __future__ import annotations

import mmap
import struct
from collections import deque
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Optional

import numpy as np

from repro.pm.clock import SimClock
from repro.pm.latency import LatencyModel, OPTANE_DCPM, PROFILES

__all__ = ["PMDevice", "PMStats", "CrashRequested", "CACHELINE"]

CACHELINE = 64
_WORD = 8
_WORDS_PER_LINE = CACHELINE // _WORD
_LINE = np.dtype(f"V{CACHELINE}")  # one cache line as one array element

# Exhaust an iterator at C speed (the itertools "consume" recipe).
_consume = deque(maxlen=0).extend


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
    """

    on_write: Optional[Callable[[int, "PMDevice"], None]] = None
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
        self.stats = PMStats()
        self.hooks = PMHooks()
        # Private, not Python's default MAP_SHARED (shmem-backed: slower
        # faults, pages charged to the page cache); huge pages keep bulk
        # data stores from paying one 4 KB fault per page.
        mapping = mmap.mmap(-1, size,
                            flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
        if hasattr(mmap, "MADV_HUGEPAGE"):
            mapping.madvise(mmap.MADV_HUGEPAGE)
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
        self._wear: Optional[np.ndarray] = (
            np.zeros(size // CACHELINE, dtype=np.uint32) if track_wear else None
        )
        self._crashed = False

    # -- internals -----------------------------------------------------------

    def _check_range(self, addr: int, n: int) -> None:
        if self._crashed:
            raise RuntimeError("device has crashed; call recover_view() first")
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
            raise RuntimeError("device has crashed; call recover_view() first")
        end = addr + n
        if addr < 0 or n < 0 or end > self.size:
            raise ValueError(f"access [{addr}, {end}) out of device bounds")
        stats = self.stats
        stats.reads += 1
        stats.bytes_read += n
        self.clock.advance(self.model.read_cost(n))
        return self._bytes[addr:end].tobytes()

    def read_silent(self, addr: int, n: int) -> bytes:
        """Read without charging cost (debug/verification use only)."""
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
        hook, in one call.  A crash raised by ``on_write`` leaves the
        store un-flushed.
        """
        n = len(data)
        if n == 0:
            if persist:
                self.persist(addr, 0)
            return
        if self._crashed:
            raise RuntimeError("device has crashed; call recover_view() first")
        end = addr + n
        if addr < 0 or end > self.size:
            raise ValueError(f"access [{addr}, {end}) out of device bounds")
        stats = self.stats
        stats.writes += 1
        stats.bytes_written += n
        # A memoryview slice takes bytes as they are; only re-materialize
        # other buffer types (profiled hot path — see the HPC guides).
        if not isinstance(data, bytes):
            data = bytes(data)
        shadow, dirty, flushing = self._shadow, self._dirty, self._flushing
        first, last = addr // CACHELINE, (end - 1) // CACHELINE
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
            if first not in shadow:
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
        advance, model = self.clock.advance, self.model
        advance(model.write_cost(n))
        on_write = self.hooks.on_write
        if on_write is not None:
            on_write(stats.writes, self)
        if not persist:
            return
        if lines is None:
            stats.clwbs += 1
            advance(model.clwb_ns)
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

    def zero_range(self, addr: int, n: int, nt: bool = True,
                   persist: bool = False) -> None:
        """Store zeros over a range (page initialization)."""
        self.write(addr, bytes(n), nt, persist)

    # -- persistence ------------------------------------------------------------

    def clwb(self, addr: int, n: int = CACHELINE) -> None:
        """Initiate write-back of every cache line covering ``[addr, addr+n)``."""
        self._check_range(addr, n)
        self._write_back(self._lines(addr, n))

    def _write_back(self, lines: range) -> None:
        self.stats.clwbs += len(lines)
        # One charge per line: the accumulators are floats, so n adds of
        # clwb_ns are not one add of n * clwb_ns.
        _consume(map(self.clock.advance,
                     repeat(self.model.clwb_ns, len(lines))))
        if self._dirty:
            written_back = self._dirty.intersection(lines)
            self._dirty -= written_back
            self._flushing |= written_back

    def sfence(self) -> None:
        """Drain pending write-backs; everything clwb'd/nt-stored is durable."""
        if self._crashed:
            raise RuntimeError("device has crashed")
        self._fence()

    def _fence(self) -> None:
        self.stats.sfences += 1
        self.clock.advance(self.model.sfence_ns)
        if not self._flushing:
            return
        count = self.stats.sfences
        if self.hooks.on_persist is not None:
            self.hooks.on_persist(count, self)
        if self._dirty:
            _consume(map(self._shadow.__delitem__, self._flushing))
        else:
            self._shadow.clear()
        if self._wear is not None:
            self._wear[np.fromiter(self._flushing, dtype=np.intp,
                                   count=len(self._flushing))] += 1
        self.stats.lines_persisted += len(self._flushing)
        self._flushing.clear()
        if self.hooks.on_persist_done is not None:
            self.hooks.on_persist_done(count, self)

    def persist(self, addr: int, n: int) -> None:
        """clwb the range then sfence — for a commit of several stores;
        one store is ``write(..., persist=True)``."""
        self.clwb(addr, n)
        self.sfence()

    # -- typed helpers -----------------------------------------------------------

    def read_u32(self, addr: int) -> int:
        return int.from_bytes(self.read(addr, 4), "little")

    def read_u64(self, addr: int) -> int:
        return int.from_bytes(self.read(addr, 8), "little")

    def write_u32(self, addr: int, value: int, persist: bool = False) -> None:
        self.write(addr, int(value).to_bytes(4, "little"), False, persist)

    # -- crash & recovery ----------------------------------------------------------

    @property
    def volatile_lines(self) -> int:
        """Number of cache lines whose content is not yet durable."""
        return len(self._shadow)

    def crash(self, mode: str = "discard",
              rng: Optional[np.random.Generator] = None) -> None:
        """Simulate sudden power loss.

        ``discard``: every non-durable line reverts to its durable content.
        ``torn``: for each non-durable line, each aligned 8-byte word
        independently either persists or reverts (seeded ``rng``) — the
        strictest legal x86 outcome.
        """
        if mode not in ("discard", "torn"):
            raise ValueError(f"unknown crash mode {mode!r}")
        if mode == "torn" and rng is None:
            rng = np.random.default_rng(0)
        self.stats.crashes += 1
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
        if not self._crashed:
            raise RuntimeError("recover_view() on a device that did not crash")
        self._crashed = False
        return self

    # -- image persistence -----------------------------------------------------

    _IMAGE_MAGIC = b"DENOVAPM"

    def save_image(self, path) -> None:
        """Serialize the *durable* state to a file.

        Only persisted bytes are written: anything still volatile in the
        cache is intentionally dropped, so a saved image is exactly what
        a power cycle would leave (callers wanting everything should
        fence first).
        """
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
    def load_image(cls, path, clock: Optional[SimClock] = None,
                   track_wear: bool = False) -> "PMDevice":
        """Reopen a device image saved with :meth:`save_image`."""
        with open(path, "rb") as fh:
            if fh.read(8) != cls._IMAGE_MAGIC:
                raise ValueError(f"{path}: not a PM device image")
            size, name_len = struct.unpack("<QB", fh.read(9))
            model_name = fh.read(name_len).decode()
            model = PROFILES.get(model_name)
            if model is None:
                raise ValueError(f"{path}: unknown device model "
                                 f"{model_name!r}")
            dev = cls(size, model=model, clock=clock,
                      track_wear=track_wear)
            if fh.readinto(dev._bytes) != size:
                raise ValueError(f"{path}: truncated image")
        return dev

    def wear_max(self) -> int:
        """Highest per-line persist count (endurance proxy)."""
        if self._wear is None:
            raise RuntimeError("device created with track_wear=False")
        return int(self._wear.max())

    def wear_total(self) -> int:
        if self._wear is None:
            raise RuntimeError("device created with track_wear=False")
        return int(self._wear.sum())
