"""repro.conc — concurrent multi-client VFS on the DES engine.

Pieces:

* :class:`ConcurrentVFS` — N client processes against one mounted
  filesystem, per-inode RWLocks + namespace lock, op-level cost
  accounting, admission control, and the dedup worker pool;
* :class:`ShardedDWQ` — per-CPU DWQ shards with work stealing and
  bounded-depth backpressure;
* :class:`LockOrderValidator` — runtime acquisition-DAG recorder that
  fails fast on cycle-forming acquisitions;
* :func:`fs_state_digest` — the logical filesystem as one digest: same
  ops under any interleaving must converge to the same one.

See docs/CONCURRENCY.md for the lock hierarchy and shard layout.
"""

from repro.conc.lockorder import LockOrderValidator, LockOrderViolation
from repro.conc.permute import fs_state_digest
from repro.conc.sdwq import ShardedDWQ
from repro.conc.vfs import OP_LATENCY_BUCKETS_NS, ConcurrentVFS

__all__ = [
    "ConcurrentVFS",
    "ShardedDWQ",
    "LockOrderValidator",
    "LockOrderViolation",
    "fs_state_digest",
    "OP_LATENCY_BUCKETS_NS",
]
