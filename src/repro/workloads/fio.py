"""Fio-style job specifications and the paper's workload presets.

The evaluation uses two synthetic sets (§V-A):

* **small files** — 1,000,000 × 4 KB files (one inode + one data page
  each): metadata-heavy;
* **large files** — 100,000 × 128 KB files (one inode, 32 data pages):
  data-heavy.

Both are swept over duplicate ratio and thread count, with a think-time
cycle of 0.1 ms think per 0.1 ms of I/O.  ``scale`` shrinks the file
counts for simulator-sized runs (the paper's absolute counts would take
hours of wall time in pure Python); throughput is a per-file rate, so
the *shape* of every comparison is scale-invariant, which EXPERIMENTS.md
verifies by running two scales.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

__all__ = ["Mode", "JobSpec", "small_file_job", "large_file_job"]

KB = 1024


class Mode(enum.Enum):
    WRITE = "write"            # create new files and write them
    OVERWRITE = "overwrite"    # rewrite existing files in place
    READ = "read"              # sequential read of existing files
    READWRITE = "readwrite"    # reader thread + overwriter thread


@dataclass(frozen=True)
class JobSpec:
    """One fio-like job."""

    name: str
    nfiles: int
    file_size: int
    mode: Mode = Mode.WRITE
    dup_ratio: float = 0.0
    threads: int = 1
    think_ratio: float = 1.0     # think time per unit of I/O time (§V-B1)
    io_chunk: int = 0            # bytes per write call; 0 = whole file
    seed: int = 42

    def __post_init__(self):
        if self.nfiles < 1 or self.file_size < 1:
            raise ValueError("nfiles and file_size must be positive")
        if not 0.0 <= self.dup_ratio <= 1.0:
            raise ValueError("dup_ratio must be in [0, 1]")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if self.io_chunk < 0:
            raise ValueError("io_chunk must be >= 0 (0 = whole file)")

    def with_(self, **kw) -> "JobSpec":
        return replace(self, **kw)


def small_file_job(nfiles: int = 2000, dup_ratio: float = 0.0,
                   threads: int = 1, seed: int = 42) -> JobSpec:
    """The paper's small-file set: 4 KB files (scaled count)."""
    return JobSpec(name="small-files", nfiles=nfiles, file_size=4 * KB,
                   dup_ratio=dup_ratio, threads=threads, seed=seed)


def large_file_job(nfiles: int = 200, dup_ratio: float = 0.0,
                   threads: int = 1, mode: Mode = Mode.WRITE,
                   seed: int = 42) -> JobSpec:
    """The paper's large-file set: 128 KB files (scaled count)."""
    return JobSpec(name="large-files", nfiles=nfiles, file_size=128 * KB,
                   mode=mode, dup_ratio=dup_ratio, threads=threads,
                   seed=seed)
