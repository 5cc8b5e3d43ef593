"""Every metric, by name and value, at fixed points of a fixed run.

Each filesystem counts through registry metrics under one canonical
name; the CLI, the sidecars, Prometheus and the benchmark harness all
read those names.  ``metric_pin.json`` holds, per variant, the sorted
``fs.obs.snapshot()`` keys with every counter and gauge value and each
histogram's ``count`` at four points — after mkfs, after a 4-client
``run_workload``, after a fixed write / read / unlink / drain script and
after a ``run_fleet`` — plus a DeNova source and replica after
send → recv → relocate → restore.  A refactor of how the code counts
must leave it unchanged: an increment site dropped (or doubled) in the
move shows as one moved value, a metric registered late as a missing key.

The ``ast`` guard keeps the counting code on that one path: no class
that serves registry metrics through ``__getattr__`` / ``__getitem__``,
no ``.set(`` on a counter, no dict literal that maps a second name to a
``*_total`` metric.

Regenerate (only when a change is *meant* to add or move a metric):
``PYTHONPATH=src python tests/obs/test_metric_pin.py``.
"""

import ast
import hashlib
import io
import json
from itertools import count
from pathlib import Path

import pytest

from repro.backup import receive_backup, send_backup
from repro.core import Config, Variant, make_fs
from repro.dedup.fingerprint import fp_prefix
from repro.nova import PAGE_SIZE
from repro.nova.gc import thorough_gc
from repro.obs import Counter
from repro.repl import relocate_latest, restore_latest
from repro.workloads import DataGenerator
from repro.workloads.fio import small_file_job
from repro.workloads.fleet import FleetSpec, run_fleet
from repro.workloads.runner import run_workload
from tests._code_index import src_trees as _modules

PIN = Path(__file__).with_name("metric_pin.json")
CFG = Config(device_pages=4096, max_inodes=256, cpus=2, fact_prefix_bits=12)


def colliding_pages(n: int) -> list:
    """``n`` distinct pages whose fingerprints share one FACT chain."""
    heads: dict = {}
    for i in count():
        page = i.to_bytes(8, "little") * (PAGE_SIZE // 8)
        head = fp_prefix(hashlib.sha1(page).digest(), CFG.fact_prefix_bits)
        heads.setdefault(head, []).append(page)
        if len(heads[head]) == n:
            return heads[head]


CHAIN = colliding_pages(5)


def values(fs) -> dict:
    snap = fs.obs.snapshot()
    return {"counters": snap["counters"], "gauges": snap["gauges"],
            "histograms": {k: h["count"]
                           for k, h in snap["histograms"].items()}}


def drain(fs) -> None:
    if hasattr(fs, "daemon"):
        fs.daemon.drain()


def script(fs) -> None:
    """Writes (some duplicate), overwrites, reads, an unlink, drains, a
    thorough log GC, a FACT chain and, on DeNova, the maintenance
    passes."""
    gen = DataGenerator(alpha=0.5, seed=3, dup_pool_size=4)
    fs.mkdir("/s")
    inos = []
    for i in range(6):
        ino = fs.create(f"/s/f{i}")
        fs.write(ino, 0, gen.file_data(2 * PAGE_SIZE))
        inos.append(ino)
    fs.unlink("/s/f1")      # while its DWQ node waits: a stale node
    for k in range(160):    # dead log pages: fast GC, then thorough
        fs.write(inos[0], (k % 2) * PAGE_SIZE, gen.file_data(PAGE_SIZE))
        if k % 20 == 19:
            drain(fs)
    for ino in inos:
        if ino != inos[1]:
            fs.read(ino, 0, 2 * PAGE_SIZE)
    drain(fs)
    thorough_gc(fs, inos[0])
    # One five-entry chain (IAA inserts); its tail deduplicated twice,
    # the second time a deep hit with RFC 2: a reorder.
    fs.write(fs.create("/s/chain"), 0, b"".join(CHAIN))
    drain(fs)
    for name in ("/s/tail1", "/s/tail2"):
        fs.write(fs.create(name), 0, CHAIN[-1])
        drain(fs)
    if hasattr(fs, "scrub"):
        fs.scrub()
        fs.deep_verify()


def variant_run(variant: Variant) -> dict:
    fs, dd = make_fs(variant, CFG)
    out = {"mkfs": values(fs)}
    # The workload runs first, as when the pin was written: its
    # ConcurrentVFS registers ``conc.lock_wait_ns``.  A hybrid write
    # outside a VFS only reads that histogram (zero contention while it
    # is absent), so the other order would pin one key fewer.
    run_workload(fs, small_file_job(nfiles=16, dup_ratio=0.5, threads=4),
                 dd=dd)
    out["workload"] = values(fs)
    script(fs)
    out["script"] = values(fs)
    run_fleet(fs, FleetSpec(tenants=2, base_files=4, file_size=8192,
                            seed=5), dd=dd, workers=1, max_shard_depth=8)
    out["fleet"] = values(fs)
    return out


def backup_run() -> dict:
    src, _ = make_fs(Variant.DELAYED, CFG)
    gen = DataGenerator(alpha=0.5, seed=4, dup_pool_size=4)
    src.mkdir("/d")
    for i in range(5):
        src.write(src.create(f"/d/f{i}"), 0, gen.file_data(3 * PAGE_SIZE))
    drain(src)
    src.snapshot("s1")
    stream = io.BytesIO()
    send_backup(src, "s1", stream)
    dst, _ = make_fs(Variant.DELAYED, CFG)
    stream.seek(0)
    receive_backup(dst, stream)
    relocate_latest(dst)
    restore_latest(dst)
    return {"source": values(src), "replica": values(dst)}


def current() -> dict:
    out = {v.value: variant_run(v) for v in Variant}
    out["backup"] = backup_run()
    return out


CASES = [v.value for v in Variant] + ["backup"]


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PIN.read_text())


@pytest.mark.parametrize("case", CASES)
def test_metrics_match_pin(case, pinned):
    got = backup_run() if case == "backup" else variant_run(Variant(case))
    want = pinned[case]
    for point in want:
        for kind in ("counters", "gauges", "histograms"):
            assert sorted(got[point][kind]) == sorted(want[point][kind]), \
                (case, point, kind)
            assert got[point][kind] == want[point][kind], (case, point, kind)


# ------------------------------------------------------------------- guard


def _names(node) -> set:
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
    return out


METRIC_NAMES = {"registry", "MetricsRegistry", "Counter", "counter",
                "counter_fn", "gauge", "histogram"}


def test_no_dynamic_view_over_registry_metrics():
    bad = []
    for rel, tree in _modules():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            dunders = {f.name for f in cls.body
                       if isinstance(f, ast.FunctionDef)}
            if dunders & {"__getattr__", "__getitem__"} \
                    and _names(cls) & METRIC_NAMES:
                bad.append(f"{rel}:{cls.lineno} {cls.name}")
    assert not bad, bad


def _counter_holders(tree) -> set:
    """Names and attributes assigned from a ``.counter(...)`` call."""
    held = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Assign) and isinstance(n.value, ast.Call) \
                and isinstance(n.value.func, ast.Attribute) \
                and n.value.func.attr in ("counter", "counter_fn"):
            held |= _names(ast.Module(body=[ast.Expr(t) for t in n.targets],
                                      type_ignores=[]))
    return held


def test_counters_never_set():
    assert not hasattr(Counter, "set")
    bad = []
    for rel, tree in _modules():
        held = _counter_holders(tree)
        for n in ast.walk(tree):
            if not (isinstance(n, ast.Call)
                    and isinstance(n.func, ast.Attribute)
                    and n.func.attr == "set"):
                continue
            recv = n.func.value
            if isinstance(recv, ast.Call) \
                    and isinstance(recv.func, ast.Attribute) \
                    and recv.func.attr in ("counter", "counter_fn"):
                bad.append(f"{rel}:{n.lineno}")
            elif isinstance(recv, ast.Name) and recv.id in held \
                    or isinstance(recv, ast.Attribute) and recv.attr in held:
                bad.append(f"{rel}:{n.lineno}")
    assert not bad, bad


def test_no_alias_table_for_a_counter():
    bad = []
    for rel, tree in _modules():
        for n in ast.walk(tree):
            if not isinstance(n, ast.Dict):
                continue
            for k, v in zip(n.keys, n.values):
                if isinstance(k, ast.Constant) and isinstance(k.value, str) \
                        and isinstance(v, ast.Constant) \
                        and isinstance(v.value, str) \
                        and v.value.endswith("_total"):
                    bad.append(f"{rel}:{n.lineno} {k.value!r}")
    assert not bad, bad


if __name__ == "__main__":
    PIN.write_text(json.dumps(current(), indent=1, sort_keys=True) + "\n")
