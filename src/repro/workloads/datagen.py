"""Duplicate-ratio-controlled data synthesis.

fio's ``dedupe_percentage`` knob, reimplemented: each 4 KB page is drawn
from a small pool of "duplicate" pages with probability α, otherwise it
is globally unique.  Over many pages the realized duplicate fraction
converges to α, and — crucially for dedup experiments — the *sequence*
is deterministic per seed, so baseline and dedup variants see
byte-identical workloads.

Pages are synthesized in NumPy batches (one RNG call per request, no
per-page Python loops) per the HPC guides; uniqueness is guaranteed by
stamping a monotone 64-bit counter into each unique page, so no
accidental collisions can inflate the dedup ratio.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["DataGenerator"]


@lru_cache(maxsize=16)
def _dup_pool(seed: int, page_size: int, size: int) -> tuple[bytes, ...]:
    """The duplicate pool: fixed pages reused for the α fraction.  It
    depends on no stream, so every generator of one seed shares it."""
    rng = np.random.default_rng(seed)
    pool = []
    for tag in range(size):
        page = rng.integers(0, 256, (page_size,), dtype=np.uint8)
        page[:8] = np.frombuffer(tag.to_bytes(8, "little"), dtype=np.uint8)
        page[8] = 0xD7  # pool marker: distinct from unique pages' stamps
        pool.append(page.tobytes())
    return tuple(pool)


class DataGenerator:
    """Deterministic page stream with duplicate ratio ``alpha``."""

    #: Bytes per page (a test subclass makes smaller ones).
    page_size = 4096

    def __init__(self, alpha: float, seed: int = 0,
                 dup_pool_size: int = 16, stream: int = 0):
        """``stream`` separates parallel generators (one per writer
        thread): streams share the same duplicate pool (so cross-thread
        duplicates dedup against each other, as fio's shared buffer pool
        does) but draw disjoint unique pages."""
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {alpha}")
        if dup_pool_size < 1:
            raise ValueError("dup_pool_size must be >= 1")
        self.alpha = alpha
        self.rng = np.random.default_rng([seed, stream])
        self._counter = stream << 40  # disjoint uniqueness namespaces
        self.pool = _dup_pool(seed, self.page_size, dup_pool_size)
        self.pages_emitted = 0
        self.dup_pages_emitted = 0

    def _random_block(self, shape) -> np.ndarray:
        return self.rng.integers(0, 256, shape, dtype=np.uint8)

    def pages(self, n: int) -> list[bytes]:
        """The next ``n`` pages of the stream."""
        if n <= 0:
            return []
        dup_mask = self.rng.random(n) < self.alpha
        pool_picks = self.rng.integers(0, len(self.pool), n)
        uniques_needed = int(n - dup_mask.sum())
        blob = self._random_block((uniques_needed, self.page_size))
        out: list[bytes] = []
        u = 0
        for i in range(n):
            if dup_mask[i]:
                out.append(self.pool[pool_picks[i]])
                self.dup_pages_emitted += 1
            else:
                page = blob[u]
                page[:8] = np.frombuffer(
                    self._counter.to_bytes(8, "little"), dtype=np.uint8)
                page[8] = 0x11  # unique marker
                self._counter += 1
                out.append(page.tobytes())
                u += 1
            self.pages_emitted += 1
        return out

    def file_data(self, nbytes: int) -> bytes:
        """A file body of ``nbytes`` (page-granular duplicate control)."""
        npages = (nbytes + self.page_size - 1) // self.page_size
        return b"".join(self.pages(npages))[:nbytes]
