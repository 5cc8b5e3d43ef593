"""The concurrent-run protocol has one home: ``ConcurrentVFS.write``
(admit → op → settle the DWQ-share reservation → kick) and
``ConcurrentVFS.run`` (pools → coordinator → deadlock check → clock
sync).  Everything here drives those two only."""

import ast
from collections import Counter

import pytest

from repro.conc.vfs import ConcurrentVFS
from repro.core import Config, Variant, make_fs
from repro.dedup.hybrid import MODE_INLINE
from repro.nova import PAGE_SIZE
from repro.tenant import QuotaExceeded
from repro.workloads.runner import DDMode
from tests._code_index import SRC, source, src_tree, src_trees
from tests.conc.permutations import run_permutations

pytestmark = [pytest.mark.conc, pytest.mark.tenant]

DATA = b"\xae" * PAGE_SIZE


def qos_vfs(variant=Variant.DELAYED, **tenant_kw):
    """A bounded-DWQ, QoS-on front-end with one tenant, and a tally of
    every reservation taken and handed back."""
    fs, _ = make_fs(variant,
                    Config(device_pages=4096, max_inodes=256, cpus=2))
    tid = fs.tenant_create("tn0", **tenant_kw).tid
    vfs = ConcurrentVFS(fs, bw_slots=2, qos=True, max_shard_depth=8)
    tally = Counter()
    for name in ("note_enqueued", "note_cancelled", "note_node_done"):
        def counted(t, name=name, orig=getattr(vfs.qos, name)):
            tally[name] += 1
            orig(t)
        setattr(vfs.qos, name, counted)
    return fs, vfs, tid, tally


def one_write(fs, vfs, tid, data=DATA, then=None):
    """Client: create /t/tn0/f and write it through the write op."""
    out = {}

    def body():
        ino, _ = yield from vfs.op(lambda: fs.create("/t/tn0/f"), "c0",
                                   ns_mode="w", tenant=tid)
        out["ino"] = ino
        try:
            yield from vfs.write(lambda: fs.write(ino, 0, data, cpu=0),
                                 "c0", ino, tenant=tid)
        except QuotaExceeded:
            out["refused"] = True
        if then is not None:
            yield from then(ino)

    return vfs.client(body(), name="c0"), out


def assert_settled(vfs, tid, tally, **expected):
    assert tally == Counter(note_enqueued=1, **expected)
    assert vfs.qos.outstanding.get(tid, 0) == 0
    assert not vfs.qos.over_share(tid)
    assert not vfs.qos.dwq_waiters


class TestReservationReleasedExactlyOnce:
    def test_node_enqueued_and_processed(self):
        fs, vfs, tid, tally = qos_vfs()
        client, _ = one_write(fs, vfs, tid)
        vfs.run([client], DDMode.immediate())
        assert vfs.worker_nodes == 1
        assert_settled(vfs, tid, tally, note_node_done=1)

    def test_unlink_while_queued(self):
        """A node whose inode dies while queued still credits its tenant
        — by the tid stamped at enqueue; ``tenant_of(ino)`` is gone."""
        fs, vfs, tid, tally = qos_vfs()

        def unlink(ino):
            yield from vfs.op(lambda: fs.unlink("/t/tn0/f"), "c0",
                              ns_mode="w", ino=ino, tenant=tid)

        client, out = one_write(fs, vfs, tid, then=unlink)
        vfs.run([client], DDMode.none())     # no pool: the node waits
        assert vfs.qos.outstanding.get(tid) == 1
        (node,) = fs.dwq.snapshot()
        assert fs.tenants.tenant_of(out["ino"]) is None
        assert node.tid == tid
        vfs.run([], DDMode.immediate())      # now drain it
        assert len(fs.dwq) == 0
        assert_settled(vfs, tid, tally, note_node_done=1)

    def test_hybrid_inline_completion_enqueues_no_node(self):
        fs, vfs, tid, tally = qos_vfs(Variant.HYBRID)
        fs.force_mode(MODE_INLINE)
        client, _ = one_write(fs, vfs, tid)
        vfs.run([client], DDMode.immediate())
        assert vfs.worker_nodes == 0 and fs.dwq.enqueued == 0
        assert_settled(vfs, tid, tally, note_cancelled=1)

    def test_quota_exceeded_after_admit(self):
        fs, vfs, tid, tally = qos_vfs(quota_pages=1)
        client, out = one_write(fs, vfs, tid, data=DATA * 2)
        vfs.run([client], DDMode.immediate())
        assert out["refused"] and fs.dwq.enqueued == 0
        assert_settled(vfs, tid, tally, note_cancelled=1)

    def test_unreserved_write_releases_nothing(self):
        """No tenant, or an unbounded queue: admit reserves nothing, so
        the write op must not hand anything back either."""
        fs, vfs, tid, tally = qos_vfs()

        def body():
            ino, _ = yield from vfs.op(lambda: fs.create("/plain"), "c0",
                                       ns_mode="w")
            yield from vfs.write(lambda: fs.write(ino, 0, DATA), "c0", ino)

        vfs.run([vfs.client(body())], DDMode.immediate())
        assert tally == Counter(note_node_done=1)   # tid None: a no-op


class TestRun:
    def test_raises_on_a_client_that_never_finishes(self):
        fs, dd = make_fs(Variant.IMMEDIATE,
                         Config(device_pages=1024, max_inodes=64))
        vfs = ConcurrentVFS(fs)

        def stuck():
            yield vfs.eng.event("never")

        with pytest.raises(RuntimeError, match="deadlocked"):
            vfs.run([vfs.client(stuck())], dd)

    def test_drive_policy_needs_a_daemon(self):
        """One rule for an explicit dd on a filesystem without a dedup
        daemon — every driver raises, none silently ignores it."""
        from repro.workloads import run_workload, small_file_job
        from repro.workloads.fleet import FleetSpec, run_fleet

        def nova():
            return make_fs(Variant.BASELINE,
                           Config(device_pages=1024, max_inodes=64))[0]

        dd = DDMode.immediate()
        drivers = [
            lambda: ConcurrentVFS(nova()).run([], dd),
            lambda: run_workload(nova(), small_file_job(nfiles=2), dd=dd),
            lambda: run_fleet(nova(), FleetSpec(tenants=1, base_files=1),
                              dd=dd),
            lambda: run_permutations(lambda: (nova(), dd),
                                     lambda vfs, t: iter(()), 1, [1]),
        ]
        for drive in drivers:
            with pytest.raises(ValueError, match="no dedup daemon"):
                drive()
        ConcurrentVFS(nova()).run([], DDMode.none())

    def test_returns_foreground_and_total_and_syncs_the_clock(self):
        fs, _ = make_fs(Variant.DELAYED,
                        Config(device_pages=1024, max_inodes=64))
        vfs = ConcurrentVFS(fs)

        def body():
            ino, _ = yield from vfs.op(lambda: fs.create("/f"), "c0",
                                       ns_mode="w")
            yield from vfs.write(lambda: fs.write(ino, 0, DATA), "c0", ino)

        fg, total = vfs.run([vfs.client(body())], DDMode.delayed(0.5, 4))
        assert 0 < fg < total == vfs.eng.now   # the pool woke after 0.5 ms
        assert fs.clock.now_ns == vfs.now_ns
        assert len(fs.dwq) == 0


_DRIVER = "conc/vfs.py"
#: The deleted pre-ConcurrentVFS op core, spelled apart so that
#: ``git grep`` for the name finds nothing in the tree.
_OLD_CORE = "Sim" + "Context"
#: The protocol's steps; each may be called from the driver module only.
_STEPS = {"admit", "note_cancelled", "start_workers", "stop_workers",
          "start_destage_workers", "stop_destage_workers",
          "_start_workers", "_start_destage_workers"}


def test_one_concurrent_run_driver():
    """Admission, reservation release, pool start/stop and the DES run
    of a ConcurrentVFS engine happen in ``conc/vfs.py`` only.  A new
    workload driver builds clients from ``op``/``write`` and calls
    ``run`` — it is not a fourth copy of the coordinator."""
    stray = []
    for rel, tree in src_trees():
        assert _OLD_CORE not in source(SRC / rel), \
            f"{rel} still names {_OLD_CORE}"
        if rel == _DRIVER:
            continue
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                continue
            recv, name = node.func.value, node.func.attr
            engine_run = (name == "run" and isinstance(recv, ast.Attribute)
                          and recv.attr == "eng")
            if name in _STEPS or engine_run:
                stray.append((rel, ast.unparse(node.func), node.lineno))
    assert not stray, f"run protocol outside {_DRIVER}: {stray}"

    # Inside the driver: write() is the only admitter and releaser,
    # run() the only one that starts pools and runs the engine.
    owners = {}
    cls = next(n for n in src_tree(_DRIVER).body
               if isinstance(n, ast.ClassDef) and n.name == "ConcurrentVFS")
    for fn in [n for n in cls.body if isinstance(n, ast.FunctionDef)]:
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in _STEPS | {"run"}:
                owners.setdefault(node.func.attr, set()).add(fn.name)
    assert owners == {"admit": {"write"}, "note_cancelled": {"write"},
                      "_start_workers": {"run"},
                      "_start_destage_workers": {"run"},
                      "run": {"run"}}, owners
