"""Fleet-traffic scenario generator: shapes, accounting, reproducibility."""

import pytest

from repro.core import Config, Variant, make_fs
from repro.workloads.fleet import FleetSpec, run_fleet
from repro.workloads.runner import DDMode
from tests._seams import overriding

pytestmark = pytest.mark.tenant


def build_fs():
    fs, _ = make_fs(Variant.DELAYED,
                    Config(device_pages=4096, max_inodes=256, cpus=4))
    return fs


class TestSpecShapes:
    def test_zipfian_file_counts(self):
        spec = FleetSpec(tenants=4, base_files=32, zipf_s=1.0)
        assert [spec.files_for(i) for i in range(4)] == [32, 16, 11, 8]
        flat = FleetSpec(tenants=3, base_files=8, zipf_s=0.0)
        assert [flat.files_for(i) for i in range(3)] == [8, 8, 8]
        # The tail never drops below one file per tenant.
        steep = FleetSpec(tenants=3, base_files=4, zipf_s=10.0)
        assert steep.files_for(2) == 1


class TestRunFleet:
    def test_basic_run_accounts_per_tenant(self):
        spec = FleetSpec(tenants=3, base_files=6, file_size=8192,
                         zipf_s=1.0, seed=11)
        res = run_fleet(build_fs(), spec, dd=DDMode.immediate(),
                        workers=1, max_shard_depth=8)
        assert res.per_tenant["tn0"]["files"] == 6
        assert res.per_tenant["tn1"]["files"] == 3
        assert res.per_tenant["tn2"]["files"] == 2
        for t in res.per_tenant.values():
            assert t["bytes"] == t["files"] * 8192
            assert t["p99_ns"] >= t["p50_ns"] >= 0
        assert res.total_ns >= res.foreground_ns > 0

    def test_quota_failures_counted_not_fatal(self):
        fs = build_fs()
        fs.tenant_create("tn0", quota_pages=4)   # 2 files of 2 pages
        spec = FleetSpec(tenants=1, base_files=6, file_size=8192,
                         seed=11)
        res = run_fleet(fs, spec, dd=DDMode.immediate(),
                        workers=1, max_shard_depth=8)
        assert res.quota_failures.get("tn0", 0) >= 1
        assert res.per_tenant["tn0"]["files"] == 2
        assert fs.tenant_stats()["tn0"]["used_pages"] <= 4

    def test_churn_deletes_and_rewrites(self):
        spec = overriding(FleetSpec, churn=0.5)(
            tenants=2, base_files=6, file_size=8192, seed=11)
        res = run_fleet(build_fs(), spec, dd=DDMode.immediate(),
                        workers=1, max_shard_depth=8)
        assert res.per_tenant["tn0"]["churned"] == 3
        assert res.per_tenant["tn1"]["churned"] >= 1

    def test_noisy_neighbor_burst_runs_all_files(self):
        spec = FleetSpec(tenants=2, base_files=4, file_size=8192,
                         zipf_s=10.0, noisy_tenant=1,
                         noisy_burst_files=12, noisy_clients=3, seed=11)
        res = run_fleet(build_fs(), spec, dd=DDMode.immediate(),
                        bw_slots=2, workers=1, shards=2,
                        max_shard_depth=2, qos=True)
        assert res.per_tenant["tn1"]["files"] == 13   # 1 base + 12 burst
        assert res.qos and res.stalls > 0

    def test_reproducible_across_runs(self):
        spec = overriding(FleetSpec, diurnal_period_ms=1.0,
                          diurnal_amplitude=0.5, churn=0.3)(
            tenants=3, base_files=6, file_size=8192, dup_ratio=0.5,
            think_ratio=0.3, seed=23)

        def one():
            res = run_fleet(build_fs(), spec, dd=DDMode.immediate(),
                            workers=2, max_shard_depth=4, qos=True)
            return (res.total_ns, res.stalls,
                    {n: (t["files"], t["bytes"], t["ops"], t["p99_ns"])
                     for n, t in res.per_tenant.items()})

        assert one() == one()
