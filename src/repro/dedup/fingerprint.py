"""Chunking and fingerprinting with modelled CPU cost.

DeNova chunks at the data-page granularity (4 KB) and fingerprints with
SHA-1 (§IV-B2), producing the 160-bit fingerprints FACT is keyed by.
The adaptive inline baseline additionally uses CRC32 weak fingerprints
(NVDedup's scheme, modelled for Eq. 4/5).

Real digests are computed (hashlib/zlib, so duplicate detection is
exact); the *time* they would take on the paper's Xeon is charged to the
simulated clock from :class:`repro.pm.CpuModel` — ~11.8 µs per 4 KB SHA-1,
matching Table IV.
"""

from __future__ import annotations

import hashlib
import zlib
from typing import Iterator

from repro.pm.clock import SimClock
from repro.pm.latency import CpuModel

__all__ = ["Fingerprinter", "fp_prefix", "chunk_pages", "CHUNK_SIZE",
           "FP_BYTES"]

CHUNK_SIZE = 4096
FP_BYTES = 20  # SHA-1


def chunk_pages(data: bytes) -> Iterator[bytes]:
    """Split ``data`` into fixed-size chunks (last one zero-padded).

    DeNova always dedups whole data pages, so in the filesystem path the
    input length is already a page multiple; the padding branch serves
    the standalone/benchmark uses.
    """
    for off in range(0, len(data), CHUNK_SIZE):
        piece = data[off:off + CHUNK_SIZE]
        if len(piece) < CHUNK_SIZE:
            piece = piece + bytes(CHUNK_SIZE - len(piece))
        yield piece


def fp_prefix(fp: bytes, bits: int) -> int:
    """The FACT index: the top ``bits`` bits of the fingerprint."""
    if not 1 <= bits <= 64:
        raise ValueError("prefix length must be 1..64 bits")
    return int.from_bytes(fp[:8], "big") >> (64 - bits)


class Fingerprinter:
    """Strong (SHA-1) and weak (CRC32) fingerprints with cost charging."""

    def __init__(self, cpu: CpuModel, clock: SimClock):
        self.cpu = cpu
        self.clock = clock
        self.strong_count = 0
        self.weak_count = 0
        self.strong_bytes = 0
        self.weak_bytes = 0

    def strong(self, chunk: bytes) -> bytes:
        """SHA-1 digest; charges the strong-fingerprint CPU time."""
        self.strong_count += 1
        self.strong_bytes += len(chunk)
        self.clock.advance(self.cpu.sha1_cost(len(chunk)))
        return hashlib.sha1(chunk).digest()

    def weak(self, chunk: bytes) -> int:
        """CRC32; charges the weak-fingerprint CPU time (Eq. 4's T_fw)."""
        self.weak_count += 1
        self.weak_bytes += len(chunk)
        self.clock.advance(self.cpu.crc32_cost(len(chunk)))
        return zlib.crc32(chunk) & 0xFFFFFFFF

    def compare(self, a: bytes, b: bytes) -> bool:
        """Constant-cost fingerprint comparison (20 B memcmp)."""
        self.clock.advance(self.cpu.memcmp_ns_per_byte * FP_BYTES)
        return a == b

    @property
    def strong_time_ns(self) -> float:
        """Total modelled strong-FP time (analysis convenience)."""
        return (self.cpu.sha1_setup_ns * self.strong_count
                + self.cpu.sha1_ns_per_byte * self.strong_bytes)
