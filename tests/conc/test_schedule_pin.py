"""End-to-end pin on the DES schedule of the concurrent runners.

``ConcurrentVFS.op`` and the engine decide *when* every simulated
operation runs: lock tiers taken in hierarchy order, bandwidth slots,
the QoS gate, admission stalls, jitter draws.  A change to that host
path may make it cheaper but may not move one event.  Each digest below
covers, for one small configuration and seed: every per-client and
per-tenant op-latency histogram (count, sum, buckets), the lock-wait,
stall and DWQ-residency histograms, the engine's dispatch count, the
final ``now_fs``, the device's ``PMStats`` and its durable image.  The
sum fields are floats fed straight from ``Engine.now`` differences, so
a wait computed any other way moves them in the last bits.

The digests are exact and carry no band; regenerate them only with a
change that means to move simulated time.
"""

import hashlib
import json
import re

import pytest

from repro.core import Config, Variant, make_fs
from repro.workloads import fleet, runner
from repro.workloads.fio import Mode, large_file_job, small_file_job
from tests.conc.permutations import run_workload
from tests._seams import overriding

pytestmark = pytest.mark.conc

_PINNED_HISTOGRAMS = re.compile(
    r"conc\.t\d+\.op_latency_ns|conc\.lock_wait_ns|conc\.stall_ns"
    r"|dwq\.residency_ns|tenant\.op_latency_ns\{.*\}")


def _fs(variant, nfiles, cpus=4):
    return make_fs(variant, Config(device_pages=4096,
                                   max_inodes=nfiles + 64, cpus=cpus,
                                   delayed_interval_ms=0.05,
                                   delayed_batch=64))


def small_delayed(seed):
    spec = small_file_job(nfiles=200, dup_ratio=0.5, threads=4, seed=seed)
    fs, dd = _fs(Variant.DELAYED, spec.nfiles)
    runner.run_workload(fs, spec, dd=dd)
    return fs


def large_inline(seed):
    spec = large_file_job(nfiles=24, dup_ratio=0.5, threads=4,
                          seed=seed).with_(io_chunk=32 * 1024)
    fs, dd = _fs(Variant.INLINE, spec.nfiles)
    runner.run_workload(fs, spec, dd=dd)
    return fs


def readwrite_immediate(seed):
    spec = large_file_job(nfiles=16, dup_ratio=0.5, threads=4,
                          mode=Mode.READWRITE, seed=seed)
    fs, dd = _fs(Variant.IMMEDIATE, spec.nfiles)
    inos = runner.prepopulate(fs, spec, drain=True)
    runner.run_workload(fs, spec, dd=dd, inos=inos, workers=2)
    return fs


def tenant_fleet(seed):
    spec = overriding(fleet.FleetSpec, churn=0.25)(
        tenants=4, base_files=24, file_size=16 * 1024, dup_ratio=0.5,
        think_ratio=0.5, noisy_tenant=1, noisy_burst_files=12,
        noisy_clients=3, seed=seed)
    fs, _ = _fs(Variant.DELAYED, 96, cpus=8)
    fleet.run_fleet(fs, spec, dd=runner.DDMode.immediate(), bw_slots=2,
                    shards=4, max_shard_depth=2, qos=True,
                    weights={spec.tenant_name(0): 8})
    return fs


def jittered(seed):
    spec = small_file_job(nfiles=48, dup_ratio=0.5, threads=3, seed=seed)
    fs, _ = _fs(Variant.IMMEDIATE, spec.nfiles)
    run_workload(fs, spec, dd=runner.DDMode.immediate(), workers=2,
                 max_shard_depth=2, jitter_seed=seed)
    return fs


CONFIGS = {f.__name__: f for f in (small_delayed, large_inline,
                                   readwrite_immediate, tenant_fleet,
                                   jittered)}

#: (configuration, seed) -> (engine events dispatched, sha256 of the
#: schedule's observable record).  The digest hashes the event count
#: too; it is pinned apart so that a change which merges or splits
#: engine operations reads as a count before an opaque hash.
PINNED = {
    ("small_delayed", 42):
        (3017,
         "b8d9058e7f50ff684b816ede88d93e74a95ecc91d476daee2998a0b43fd5c55d"),
    ("small_delayed", 1337):
        (3017,
         "26173e002ef67d34c60f8e9f3ab2ba0161ce7689486de249eddbb44ba712ffe9"),
    ("large_inline", 42):
        (402,
         "5bb18eac74b7bccc737e55469a8e08378c1e626c7faa258198f0c433ff720ec2"),
    ("large_inline", 1337):
        (401,
         "992e22c7211c59bcbe393812e15c9858096ee63b769c10a2ac1f522a148182f1"),
    ("readwrite_immediate", 42):
        (114,
         "b3c387d4d3f1cb9e110ac783b86156d4b47b8fdaa9d0d60c4098ed2d0e046d20"),
    ("readwrite_immediate", 1337):
        (114,
         "f76fcb78f650e42af7052820a7dec889ad52938a7473dad34ec0da317f8e62e6"),
    ("tenant_fleet", 42):
        (1347,
         "b9885de57d3316c63cbd992df3a137096ddbc060600d325e1f2d6e34ab3b9724"),
    ("tenant_fleet", 1337):
        (1348,
         "a6de1a41917fa09a957b39cd5486375f7d1f1abb3b550842f2c05bd4e87e9678"),
    ("jittered", 42):
        (1022,
         "ab88ace4f1fc5b02d02232bc5c4d2af10ff6d0646d51a1ed169f1bdeba2860b8"),
    ("jittered", 1337):
        (1020,
         "98f73010d521ae9a3c6c4edefda78bd777be9559fdc79021b6339eacd289346f"),
}


def schedule_digest(fs, tmp_path) -> str:
    registry = fs.obs.registry
    record = {
        "histograms": {
            name: (m.count, m.sum, m.counts)
            for name, m in registry
            if _PINNED_HISTOGRAMS.fullmatch(name)},
        "events": registry.get("sim.events_dispatched_total").value,
        "now_fs": fs.clock.now_fs,
        "pm": fs.dev.stats.snapshot(),
    }
    h = hashlib.sha256(json.dumps(record, sort_keys=True).encode())
    image = tmp_path / "durable.img"
    fs.dev.save_image(image)
    h.update(image.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("config,seed", sorted(PINNED))
def test_schedule_lands_on_the_pinned_digest(config, seed, tmp_path):
    fs = CONFIGS[config](seed)
    names = [name for name, _ in fs.obs.registry
             if _PINNED_HISTOGRAMS.fullmatch(name)]
    # The record is not vacuous: the lock tiers and the queue were used.
    assert "conc.lock_wait_ns" in names and "dwq.residency_ns" in names
    assert fs.obs.registry.get("conc.lock_wait_ns").count > 0
    events, digest = PINNED[config, seed]
    assert fs.obs.registry.get("sim.events_dispatched_total").value == events
    assert schedule_digest(fs, tmp_path) == digest
