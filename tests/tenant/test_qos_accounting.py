"""QoS outstanding-node accounting at fleet scale.

The release-exactly-once rule itself (processed / unlinked while queued
/ inline completion / quota failure) is pinned on the write op in
``tests/conc/test_driver.py``.  Here, the scenarios that need several
clients, any of which used to wedge a tenant by leaking
``TenantQoS.outstanding`` until ``over_share()`` was permanently true:

* a whole fleet whose writes **enqueue no node at all** (hybrid inline
  completion) must finish;
* several writers of one tenant pass the share check **concurrently**
  — admit must re-check after every wait so the share is never
  overshot (each overshoot is a slot the workers never give back to
  the right waiter ordering).
"""

import pytest

from repro.conc.vfs import ConcurrentVFS
from repro.core import Config, Variant, make_fs
from repro.nova import PAGE_SIZE
from repro.tenant.qos import UNTENANTED
from repro.workloads.datagen import DataGenerator
from repro.workloads.fleet import FleetSpec, run_fleet
from repro.workloads.runner import DDMode

pytestmark = pytest.mark.tenant


def build_fs(variant=Variant.DELAYED, cpus=2):
    fs, _ = make_fs(variant,
                    Config(device_pages=4096, max_inodes=256, cpus=cpus))
    return fs


class TestInlineCompletionAccounting:
    def test_hybrid_inline_fleet_does_not_leak_reservations(self):
        """Inline-completed writes (no node) hand their reservation back."""
        fs = build_fs(Variant.HYBRID, cpus=4)
        if hasattr(fs, "force_mode"):
            from repro.dedup.hybrid import MODE_INLINE
            fs.force_mode(MODE_INLINE)
        spec = FleetSpec(tenants=2, base_files=6, file_size=8192,
                         dup_ratio=0.0, seed=11)
        res = run_fleet(fs, spec, dd=DDMode.immediate(), workers=1,
                        shards=2, max_shard_depth=2, qos=True)
        assert res.per_tenant["tn0"]["files"] == 6
        assert res.per_tenant["tn1"]["files"] == 3


class TestShareNeverOvershot:
    def test_concurrent_writers_respect_share(self):
        """N writers of one tenant never exceed its DWQ share."""
        fs = build_fs(cpus=4)
        busy = fs.tenant_create("busy").tid
        fs.tenant_create("calm")           # splits the capacity in half
        cvfs = ConcurrentVFS(fs, bw_slots=2, workers=1, qos=True,
                             shards=1, max_shard_depth=4)
        share = cvfs.qos.share_of(busy)
        assert share == 2
        peak = {"v": 0}
        orig = cvfs.qos.note_enqueued

        def watched(tid):
            orig(tid)
            peak["v"] = max(peak["v"], cvfs.qos.outstanding.get(busy, 0))

        cvfs.qos.note_enqueued = watched

        def client(i):
            holder = f"b{i}"
            gen = DataGenerator(0.0, seed=5, stream=i)

            def body():
                for k in range(4):
                    data = gen.file_data(PAGE_SIZE)
                    ino, _ = yield from cvfs.op(
                        lambda p=f"/t/busy/f{i}_{k}": fs.create(p),
                        holder, ns_mode="w", tenant=busy)
                    yield from cvfs.write(
                        lambda ino=ino, d=data: fs.write(ino, 0, d, cpu=i),
                        holder, ino, tenant=busy)

            return body()

        cvfs.run([cvfs.client(client(i), name=f"b{i}") for i in range(4)],
                 DDMode.immediate())
        assert peak["v"] <= share, \
            f"tenant exceeded its DWQ share: {peak['v']} > {share}"
        assert cvfs.qos.outstanding.get(busy, 0) == 0


class TestGateCoversUntenanted:
    def test_tenantless_ops_pass_the_gate(self):
        """With QoS on, ops without a tenant still occupy gate capacity
        (sentinel id, weight 1) so gated tenants never queue behind
        ungated slot holders."""
        fs = build_fs()
        tid = fs.tenant_create("tn0").tid
        cvfs = ConcurrentVFS(fs, bw_slots=1, workers=1, qos=True,
                             max_shard_depth=8)

        def tenant_client():
            for k in range(3):
                yield from cvfs.op(
                    lambda p=f"/t/tn0/f{k}": fs.create(p), "t0",
                    ns_mode="w", tenant=tid)

        def plain_client():
            for k in range(3):
                yield from cvfs.op(
                    lambda p=f"/x{k}": fs.create(p), "plain",
                    ns_mode="w")   # no tenant attached

        cvfs.run([cvfs.client(tenant_client(), name="t0"),
                  cvfs.client(plain_client(), name="plain")], DDMode.none())
        log = cvfs.qos.gate.admission_log
        assert log.count(UNTENANTED) == 3
        assert log.count(tid) == 3
        assert cvfs.qos.gate.in_flight == 0
