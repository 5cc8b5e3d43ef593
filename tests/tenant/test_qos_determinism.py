"""Schedule-permutation determinism for the weighted-fair scheduler.

Two layers of guarantee, each tested where it actually holds:

* :class:`DRRGate` dispatches queued waiters in sorted-tenant-id DRR
  order, so the grant sequence from a saturated gate is a **pure
  function of the queued multiset** — any arrival permutation of the
  same ops produces the identical admission order.
* At the ConcurrentVFS level, arrival times themselves move with the
  schedule (an uncontended gate grants in arrival order by design), so
  the invariant is: identical final logical state, identical per-tenant
  admission counts, and identical per-tenant usage accounting across
  seeded interleavings *and* worker counts.
"""

import itertools
from collections import Counter

import pytest

from repro.conc import fs_state_digest
from repro.core import Config, Variant, make_fs
from repro.nova import PAGE_SIZE
from repro.sim import Engine
from repro.tenant.qos import DRRGate, TokenBucket
from repro.workloads.datagen import DataGenerator
from repro.workloads.runner import DDMode
from tests.conc.permutations import jittered

pytestmark = pytest.mark.tenant

WEIGHTS = {1: 4, 2: 2, 3: 1}


def drive_gate(arrivals, capacity=2, releases=None):
    """Saturate a gate, enqueue ``arrivals`` (tids), then drain it."""
    eng = Engine()
    gate = DRRGate(eng, capacity, lambda t: WEIGHTS.get(t, 1))
    for _ in range(capacity):          # fill capacity; nothing queued yet
        eng.process(gate.acquire(0), name="filler")

    def _spawn():
        for tid in arrivals:
            eng.process(gate.acquire(tid), name=f"acq-{tid}")
        yield eng.timeout(0)

    def _drain():
        yield eng.timeout(1)
        for _ in range(capacity + len(arrivals)):
            gate.release()
            yield eng.timeout(1)

    eng.process(_spawn(), name="spawn")
    eng.process(_drain(), name="drain")
    eng.run()
    assert gate.in_flight == 0
    # Skip the uncontended capacity-filling grants.
    return gate.admission_log[capacity:]


class TestGatePermutation:
    def test_grant_order_pure_function_of_queued_multiset(self):
        """Every arrival permutation of the same ops is granted in the
        same order — the satellite's determinism observable."""
        multiset = [1, 1, 1, 1, 2, 2, 3, 3]
        orders = {tuple(drive_gate(list(p)))
                  for p in itertools.permutations([1, 2, 3], 3)
                  for p in [sum(([t] * multiset.count(t) for t in p), [])]}
        assert len(orders) == 1
        order = next(iter(orders))
        assert Counter(order) == Counter(multiset)
        # Weighted fairness is visible in the prefix: tenant 1 (weight 4)
        # drains before tenant 3 (weight 1) finishes.
        assert order.index(3) > order.index(1)
        assert order[:4].count(1) >= order[:4].count(3)

    def test_interleaved_permutations_also_converge(self):
        multiset = [3, 2, 1, 3, 2, 1, 1, 1, 2, 3]
        perms = set(itertools.permutations(multiset))
        sample = list(sorted(perms))[:12]
        orders = {tuple(drive_gate(list(p))) for p in sample}
        assert len(orders) == 1

    def test_admission_log_records_every_grant(self):
        log = drive_gate([1, 2, 3])
        assert Counter(log) == Counter([1, 2, 3])


class TestTokenBucketDeterminism:
    def test_burst_serializes_identically(self):
        """The n-th over-burst reservation always waits n debt slots —
        no wall clock, no randomness."""
        delays = []
        for _ in range(3):
            b = TokenBucket(rate_per_s=1000.0, burst=2.0)
            delays.append([b.reserve(0.0) for _ in range(6)])
        assert delays[0] == delays[1] == delays[2]
        d = delays[0]
        assert d[0] == d[1] == 0.0
        assert d[2] > 0 and all(d[i + 1] > d[i] for i in range(2, 5))


def qos_run(seed: int, workers: int):
    """One fleet-shaped run: 3 weighted tenants, bounded DWQ, QoS on."""
    fs, _ = make_fs(Variant.IMMEDIATE,
                    Config(device_pages=4096, max_inodes=256, cpus=4))
    names = {"tn0": 4, "tn1": 2, "tn2": 1}
    tids = {n: fs.tenant_create(n, weight=w).tid
            for n, w in names.items()}
    cvfs = jittered(seed, 4000.0)(fs, bw_slots=2, workers=workers,
                                  qos=True, max_shard_depth=4)

    def client(n, i):
        holder = f"c-{n}"
        gen = DataGenerator(0.5, seed=3, stream=i)
        tid = tids[n]

        def body():
            for k in range(6):
                data = gen.file_data(PAGE_SIZE)
                ino, _ = yield from cvfs.op(
                    lambda p=f"/t/{n}/f{k}": fs.create(p), holder,
                    ns_mode="w", tenant=tid)
                yield from cvfs.write(
                    lambda ino=ino, d=data: fs.write(ino, 0, d, cpu=i),
                    holder, ino, tenant=tid)

        return body()

    cvfs.run([cvfs.client(client(n, i), name=f"c-{n}")
              for i, n in enumerate(names)], DDMode.immediate())
    return (fs_state_digest(fs), Counter(cvfs.qos.gate.admission_log),
            fs.tenant_stats(), cvfs.eng.now)


class TestFleetDeterminism:
    def test_state_and_admissions_identical_across_schedules(self):
        runs = {(seed, workers): qos_run(seed, workers)
                for seed in (1, 2, 3) for workers in (1, 2)}
        digests = {r[0] for r in runs.values()}
        admissions = {tuple(sorted(r[1].items())) for r in runs.values()}
        stats = {str(r[2]) for r in runs.values()}
        assert len(digests) == 1, "logical state diverged with schedule"
        assert len(admissions) == 1, "per-tenant admissions diverged"
        assert len(stats) == 1, "tenant accounting diverged"
        # The schedules genuinely differed — determinism is not vacuous.
        assert len({r[3] for r in runs.values()}) > 1
