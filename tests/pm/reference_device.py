"""The per-line reference model of :class:`repro.pm.device.PMDevice`.

This is the device's volatility logic as it was before it moved to run
granularity, kept as the oracle for it: one Python step per cache line,
nothing bulk, nothing clever.  ``test_device_reference.py`` drives it and
the real device with the same operations and requires equal clocks,
counters, volatile-line counts and — after every crash — equal media.

It deliberately shares only the passive types (stats, hooks, latency
model, clock) with the implementation.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.pm.clock import SimClock
from repro.pm.device import CACHELINE, PMHooks, PMStats
from repro.pm.latency import OPTANE_DCPM

_WORD = 8


class PerLineDevice:
    def __init__(self, size: int, clock: SimClock, track_wear: bool = False):
        self.size = size
        self.model = OPTANE_DCPM
        self.clock = clock
        self.stats = PMStats()
        self.hooks = PMHooks()
        self.mem = bytearray(size)
        self.shadow: dict[int, bytes] = {}   # line -> durable content
        self.dirty: set[int] = set()
        self.flushing: set[int] = set()
        self.wear = [0] * (size // CACHELINE) if track_wear else None

    @staticmethod
    def _lines(addr: int, n: int) -> range:
        return range(addr // CACHELINE, (addr + n - 1) // CACHELINE + 1)

    def media(self) -> bytes:
        return bytes(self.mem)

    def fork(self) -> "PerLineDevice":
        """A copy of the content and the per-line tables, to crash."""
        twin = copy.copy(self)
        twin.mem, twin.shadow = bytearray(self.mem), dict(self.shadow)
        twin.dirty, twin.flushing = set(self.dirty), set(self.flushing)
        twin.stats, twin.hooks = PMStats(), PMHooks()
        return twin

    @property
    def volatile_lines(self) -> int:
        return len(self.shadow)

    def read(self, addr: int, n: int) -> bytes:
        self.stats.reads += 1
        self.stats.bytes_read += n
        self.clock.advance(self.model.read_cost(n))
        return bytes(self.mem[addr:addr + n])

    def read_view(self, addr: int, n: int) -> bytes:
        return self.read(addr, n)   # what a view shows when it is taken

    def write(self, addr: int, data, nt: bool = False) -> None:
        n = len(data)
        if n == 0:
            return
        self.stats.writes += 1
        self.stats.bytes_written += n
        for line in self._lines(addr, n):
            if line not in self.shadow:
                start = line * CACHELINE
                self.shadow[line] = bytes(self.mem[start:start + CACHELINE])
        self.mem[addr:addr + n] = bytes(data)
        if nt:
            self.stats.nt_writes += 1
        for line in self._lines(addr, n):
            if nt:
                self.flushing.add(line)
                self.dirty.discard(line)
            else:
                self.flushing.discard(line)
                self.dirty.add(line)
        self.clock.advance(self.model.write_cost(n))

    def write_atomic64(self, addr: int, value: int) -> None:
        self.write(addr, int(value).to_bytes(8, "little"))

    def zero_range(self, addr: int, n: int) -> None:
        self.write(addr, bytes(n), nt=True)

    def clwb(self, addr: int, n: int = CACHELINE) -> None:
        for line in self._lines(addr, n):
            self.stats.clwbs += 1
            self.clock.advance(self.model.clwb_ns)
            if line in self.dirty:
                self.dirty.discard(line)
                self.flushing.add(line)

    def sfence(self) -> None:
        self.stats.sfences += 1
        self.clock.advance(self.model.sfence_ns)
        if not self.flushing:
            return
        count = self.stats.sfences
        if self.hooks.on_persist is not None:
            self.hooks.on_persist(count, self)
        for line in self.flushing:
            self.shadow.pop(line, None)
            if self.wear is not None:
                self.wear[line] += 1
        self.stats.lines_persisted += len(self.flushing)
        self.flushing.clear()
        if self.hooks.on_persist_done is not None:
            self.hooks.on_persist_done(count, self)

    def persist(self, addr: int, n: int) -> None:
        self.clwb(addr, n)
        self.sfence()

    def crash(self, mode: str = "discard", rng=None) -> None:
        self.stats.crashes += 1
        for line, durable in self.shadow.items():
            start = line * CACHELINE
            if mode == "discard":
                self.mem[start:start + CACHELINE] = durable
                continue
            keep_new = rng.integers(0, 2, size=CACHELINE // _WORD,
                                    dtype=np.uint8)
            for w in range(CACHELINE // _WORD):
                if not keep_new[w]:
                    lo = w * _WORD
                    self.mem[start + lo:start + lo + _WORD] = \
                        durable[lo:lo + _WORD]
        self.shadow.clear()
        self.dirty.clear()
        self.flushing.clear()

    def recover_view(self) -> "PerLineDevice":
        return self

    def wear_max(self) -> int:
        return max(self.wear)

    def wear_total(self) -> int:
        return sum(self.wear)


def volatile_lines(dev) -> int:
    """Cache lines whose content is not yet durable, on either device.

    The reference holds them all in its shadow; the real device also
    holds the lines of a durable store in flight and its held runs."""
    if isinstance(dev, PerLineDevice):
        return dev.volatile_lines
    flight = dev._in_flight
    return (len(dev._shadow) + (flight[1] - flight[0] if flight else 0)
            + sum(stop - first for first, stop, _ in dev._runs))
