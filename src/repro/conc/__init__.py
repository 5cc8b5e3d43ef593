"""repro.conc — concurrent multi-client VFS on the DES engine.

Pieces:

* :class:`ConcurrentVFS` — N client processes against one mounted
  filesystem, per-inode RWLocks + namespace lock, op-level cost
  accounting, admission control, and the dedup worker pool;
* :class:`ShardedDWQ` — per-CPU DWQ shards with work stealing and
  bounded-depth backpressure;
* :class:`LockOrderValidator` — runtime acquisition-DAG recorder that
  fails fast on cycle-forming acquisitions;
* :func:`run_permutations` / :func:`fs_state_digest` — the
  deterministic-schedule permuter: same ops under several seeded
  interleavings must converge to an identical logical filesystem.

See docs/CONCURRENCY.md for the lock hierarchy and shard layout.
"""

from repro.conc.lockorder import LockOrderValidator, LockOrderViolation
from repro.conc.permute import (PermutationReport, fs_state_digest,
                                run_permutations)
from repro.conc.sdwq import ShardedDWQ
from repro.conc.vfs import OP_LATENCY_BUCKETS_NS, ConcurrentVFS

__all__ = [
    "ConcurrentVFS",
    "ShardedDWQ",
    "LockOrderValidator",
    "LockOrderViolation",
    "PermutationReport",
    "fs_state_digest",
    "run_permutations",
    "OP_LATENCY_BUCKETS_NS",
]
