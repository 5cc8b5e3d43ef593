"""The deterministic-schedule permuter: same ops, many interleavings.

The determinism claim behind offline dedup is that background workers
*never change observable state*: whatever order clients, shards, and
workers interleave in, the final logical filesystem is identical.  The
permuter makes that claim testable — it reruns one workload under
several seeded schedules (a :class:`ConcurrentVFS` whose ``jitter_seed``
is set injects a bounded seeded delay before every op, perturbing
lock-acquisition order, steal decisions, and worker/client overlap) and
compares :func:`repro.conc.fs_state_digest` across the runs.

:func:`run_workload` is :func:`repro.workloads.runner.run_workload` on
such a front-end, with the shard knobs production sets only through
``run_fleet`` and the CLI.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.conc import ConcurrentVFS, fs_state_digest
from repro.workloads import runner
from tests._seams import overriding


def jittered(seed: Optional[int],
             jitter_ns: float = ConcurrentVFS.jitter_ns) -> type:
    """``ConcurrentVFS`` with a seeded schedule jitter."""
    return overriding(ConcurrentVFS, jitter_seed=seed, jitter_ns=jitter_ns)


def run_workload(fs, spec, *, shards: Optional[int] = None,
                 max_shard_depth: Optional[int] = None,
                 jitter_seed: Optional[int] = None, **kw):
    """``runner.run_workload`` over ``jittered(jitter_seed)(fs,
    shards=..., max_shard_depth=..., ...)``."""
    real = runner.ConcurrentVFS
    runner.ConcurrentVFS = functools.partial(
        jittered(jitter_seed), shards=shards,
        max_shard_depth=max_shard_depth)
    try:
        return runner.run_workload(fs, spec, **kw)
    finally:
        runner.ConcurrentVFS = real


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
                     jitter_ns: float = ConcurrentVFS.jitter_ns,
                     max_shard_depth: Optional[int] = None,
                     check: Optional[Callable[[object], None]] = None,
                     ) -> PermutationReport:
    """Run one workload under several seeded schedules.

    ``make_fs() -> (fs, dd)`` builds a fresh filesystem per run (the
    :func:`repro.core.make_fs` contract); ``client_gen(vfs, tid)``
    yields one client's op generator.  Each seed gets its own jittered
    ConcurrentVFS and one :meth:`ConcurrentVFS.run` (clients, then the
    worker pool drains); then the optional ``check`` callback runs
    (invariants) and the logical digest is recorded.
    """
    report = PermutationReport()
    for seed in seeds:
        fs, dd = make_fs()
        vfs = jittered(seed, jitter_ns)(fs, workers=workers,
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
