"""Deterministic-schedule permutation: same ops, many interleavings.

The determinism claim behind offline dedup is that background workers
*never change observable state*: whatever order clients, shards, and
workers interleave in, the final logical filesystem is identical.  The
permuter makes that claim testable — it reruns one workload under
several seeded schedules (ConcurrentVFS injects a bounded seeded delay
before every op, perturbing lock-acquisition order, steal decisions,
and worker/client overlap) and compares :func:`fs_state_digest` across
the runs.

The digest covers *logical* state only: the namespace tree, file
contents, hard-link partitions, and symlink targets.  Inode numbers,
physical page placement, FACT layout, and log geometry are excluded on
purpose — those legitimately vary with the schedule; user-visible bytes
must not.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.conc.vfs import ConcurrentVFS
from repro.nova.inode import ITYPE_DIR, ITYPE_SYMLINK

__all__ = ["fs_state_digest", "run_permutations", "PermutationReport"]


def fs_state_digest(fs) -> str:
    """SHA-1 over the logical filesystem state (schedule-invariant)."""
    h = hashlib.sha1()
    groups: dict[int, str] = {}  # ino -> first path seen (link partition)

    def emit(*parts: object) -> None:
        for p in parts:
            h.update(str(p).encode())
            h.update(b"\0")

    def visit_dir(path: str) -> None:
        names = sorted(fs.listdir(path))
        emit("D", path, ",".join(names))
        for name in names:
            child = f"{path.rstrip('/')}/{name}"
            ino = fs.lookup(child, follow=False)
            st = fs.stat(ino)
            if st.itype == ITYPE_DIR:
                visit_dir(child)
            elif st.itype == ITYPE_SYMLINK:
                emit("L", child, fs.readlink(child))
            else:
                group = groups.setdefault(ino, child)
                content = fs.read(ino, 0, st.size) if st.size else b""
                emit("F", child, st.size, st.links, group,
                     hashlib.sha1(content).hexdigest())

    visit_dir("/")
    return h.hexdigest()


@dataclass
class PermutationReport:
    """Outcome of one permutation sweep."""

    seeds: list = field(default_factory=list)
    digests: list = field(default_factory=list)
    total_ns: list = field(default_factory=list)
    steals: list = field(default_factory=list)
    worker_nodes: list = field(default_factory=list)

    @property
    def deterministic(self) -> bool:
        return len(set(self.digests)) <= 1

    def assert_deterministic(self) -> None:
        if not self.deterministic:
            detail = ", ".join(f"seed {s}: {d[:12]}"
                               for s, d in zip(self.seeds, self.digests))
            raise AssertionError(
                f"final state diverged across schedules: {detail}")


def run_permutations(make_fs: Callable[[], tuple],
                     client_gen: Callable[[ConcurrentVFS, int], object],
                     clients: int,
                     seeds: list[int],
                     workers: int = 2,
                     jitter_ns: float = 2000.0,
                     max_shard_depth: Optional[int] = None,
                     check: Optional[Callable[[object], None]] = None,
                     ) -> PermutationReport:
    """Run one workload under several seeded schedules.

    ``make_fs() -> (fs, dd)`` builds a fresh filesystem per run (the
    :func:`repro.core.make_fs` contract); ``client_gen(vfs, tid)``
    yields one client's op generator.  Each seed gets its own
    ConcurrentVFS with schedule jitter and one :meth:`ConcurrentVFS.run`
    (clients, then the worker pool drains); then the optional ``check``
    callback runs (invariants) and the logical digest is recorded.
    """
    report = PermutationReport()
    for seed in seeds:
        fs, dd = make_fs()
        vfs = ConcurrentVFS(fs, workers=workers, jitter_seed=seed,
                            jitter_ns=jitter_ns,
                            max_shard_depth=max_shard_depth)
        procs = [vfs.client(client_gen(vfs, t), name=f"client-{t}")
                 for t in range(clients)]
        vfs.run(procs, dd)
        if check is not None:
            check(fs)
        report.seeds.append(seed)
        report.digests.append(fs_state_digest(fs))
        report.total_ns.append(vfs.eng.now)
        report.steals.append(vfs.sdwq.steals if vfs.sdwq is not None else 0)
        report.worker_nodes.append(vfs.worker_nodes)
    return report
