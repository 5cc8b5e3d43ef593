"""A reference loop that tells how fast the sandbox is right now.

The sandbox shares its cores with other guests, and its speed changes by
a factor of up to two for seconds at a time; the guest sees no steal,
CPU time tracks wall time.  Identical work then spreads 20 to 30 %
between passes, which no bound the contract allows would survive.  The
slow spells hit all Python code alike, so every pass times this fixed
piece of work just before and just after its timed section and the
runner divides host time by the slowdown it shows: over 24 back-to-back
passes in a noisy hour the median of three passes spread 20 % raw and
6 % corrected (README.md, "Noise").

The work resembles the simulator's: attribute, dict and list traffic in
pure Python, page-sized NumPy slice stores and SHA-1 over 4 KB pages.
"""

from __future__ import annotations

import hashlib
import time

import numpy as np

__all__ = ["REF_NOMINAL_S", "calibrate"]

#: What :func:`calibrate` takes on the 2-core sandbox when it is quiet.
#: Host-clock metrics are reported at this speed: a pass whose
#: reference loop took twice as long has its host times halved.
REF_NOMINAL_S = 0.24

_ROUNDS = 600


class _Cell:
    def __init__(self):
        self.total = 0
        self.seen = {}

    def touch(self, i: int) -> int:
        self.total += i & 7
        self.seen[i & 1023] = self.total
        return self.total


def calibrate() -> float:
    """Host seconds the reference work takes right now."""
    mem = np.zeros(1 << 20, dtype=np.uint8)
    page = bytes(range(256)) * 16
    t0 = time.perf_counter()
    for r in range(_ROUNDS):
        cell, keep = _Cell(), []
        for i in range(2000):
            cell.touch(i)
            if not i & 15:
                keep.append((i, bytes(64)))
        for k in range(16):
            off = ((r * 16 + k) % 255) * 4096
            mem[off:off + 4096] = np.frombuffer(page, dtype=np.uint8)
            hashlib.sha1(mem[off:off + 4096].tobytes()).digest()
    return time.perf_counter() - t0
