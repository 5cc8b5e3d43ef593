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
change that means to move simulated time, with ``PYTHONPATH=src python
tests/conc/regen_schedule_pins.py``: it rewrites ``schedule_pins.json``
and prints, per configuration and seed, which parts moved — the event
count, ``now_fs``, each ``PMStats`` field, each pinned histogram and
the durable image.  Under concurrency simulated time decides the
interleaving, so a change that moves only the clock may move the image
too; the event count and ``PMStats`` say whether the work itself moved.
"""

import hashlib
import json
import pathlib
import re

import pytest

from repro.core import Config, Variant, make_fs
from repro.pm import PMDevice
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

PIN_FILE = pathlib.Path(__file__).with_name("schedule_pins.json")

#: configuration -> seed -> the pinned row: ``events`` (engine events
#: dispatched), ``digest`` (sha256 of the schedule's observable record)
#: and the parts that digest covers, so that a move names its parts
#: (``PYTHONPATH=src python tests/conc/regen_schedule_pins.py``
#: rewrites the table and prints them).  The digest hashes the event
#: count too; it is pinned apart so that a change which merges or splits
#: engine operations reads as a count before an opaque hash.
PINNED = {(config, int(seed)): row
          for config, rows in json.loads(PIN_FILE.read_text()).items()
          for seed, row in rows.items()}

def _record(fs) -> dict:
    registry = fs.obs.registry
    return {
        "histograms": {
            name: (m.count, m.sum, m.counts)
            for name, m in registry
            if _PINNED_HISTOGRAMS.fullmatch(name)},
        "events": registry.get("sim.events_dispatched_total").value,
        "now_fs": fs.clock.now_fs,
        "pm": fs.dev.stats.snapshot(),
    }


def schedule_digest(fs, tmp_path) -> str:
    h = hashlib.sha256(json.dumps(_record(fs), sort_keys=True).encode())
    image = tmp_path / "durable.img"
    fs.dev.save_image(image)
    h.update(image.read_bytes())
    return h.hexdigest()


def _short(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()[:16]


def pin_row(fs, tmp_path) -> dict:
    """One run's row of the table: the digest and its parts — each
    histogram and the durable image as sha256 prefixes."""
    record = _record(fs)
    digest = schedule_digest(fs, tmp_path)
    dev = PMDevice.load_image(tmp_path / "durable.img")
    try:
        image = hashlib.sha256(dev.read_silent(0, dev.size)).hexdigest()
    finally:
        dev.close()
    return {"events": record["events"], "digest": digest,
            "now_fs": record["now_fs"], "pm": record["pm"],
            "histograms": {name: _short(value) for name, value
                           in sorted(record["histograms"].items())},
            "image": image[:16]}


def pin_diff(config: str, seed: int, old: dict, new: dict) -> list[str]:
    """The parts of one row that moved, one line (none when none did)."""
    moved = [part for part in ("events", "now_fs", "image")
             if old[part] != new[part]]
    for group in ("pm", "histograms"):
        moved += [f"{group}.{name}" for name in sorted(
            old[group].keys() | new[group].keys())
            if old[group].get(name) != new[group].get(name)]
    if moved or old["digest"] != new["digest"]:
        return [f"{config} {seed}: {', '.join(moved) or 'digest'} moved"]
    return []


@pytest.mark.parametrize("config,seed", sorted(PINNED))
def test_schedule_lands_on_the_pinned_digest(config, seed, tmp_path):
    fs = CONFIGS[config](seed)
    names = [name for name, _ in fs.obs.registry
             if _PINNED_HISTOGRAMS.fullmatch(name)]
    # The record is not vacuous: the lock tiers and the queue were used.
    assert "conc.lock_wait_ns" in names and "dwq.residency_ns" in names
    assert fs.obs.registry.get("conc.lock_wait_ns").count > 0
    row = PINNED[config, seed]
    assert fs.obs.registry.get("sim.events_dispatched_total").value \
        == row["events"]
    assert schedule_digest(fs, tmp_path) == row["digest"], "\n".join(
        pin_diff(config, seed, row, pin_row(fs, tmp_path)))
