"""A dedup worker runs an Algorithm-1 node as one operation per lock set.

Inside its exclusive ``ino:<n>`` hold, :meth:`ConcurrentVFS._dedup_node`
is three engine operations whatever the node's page count: validate
plus every page's ``fingerprint_page``; one ``stage_page`` per distinct
fingerprint of the hits under the one ``fact`` lock; ``commit_node``.  A node whose pages are all
stale has nothing to stage and skips the middle one; a node whose entry
is stale is the first alone.  The stage methods are still called once
per page and once per distinct fingerprint.

The counts come from a delayed run over nodes queued before the
front-end starts: the worker's :meth:`~ConcurrentVFS.op` calls (through
``tests/_seams``), the daemon's stage calls, and the worker's ``lock``
flight events, each split per node at the node's dequeue.
"""

import pytest

from repro.conc import ConcurrentVFS
from repro.core import Config, Variant, make_fs
from repro.nova import PAGE_SIZE
from tests._seams import overriding

pytestmark = pytest.mark.conc


def _page(tag: int) -> bytes:
    return tag.to_bytes(8, "little") * (PAGE_SIZE // 8)


def _pages(*tags: int) -> bytes:
    return b"".join(_page(t) for t in tags)


def run_counted():
    """Queue a fixed set of nodes, drain them with one delayed worker and
    return ``{node entry addr: record}`` in processing order.

    A record holds the ``ino``, whether ``validate_node`` found the
    entry ``live``, its ``pages``, the worker's ops (``dequeue``, ``op``
    or ``fact``), the ``fingerprint_page`` and ``stage_page`` calls and
    the ``(name, holder)`` of the worker's ``lock`` flight events.
    """
    fs, dd = make_fs(Variant.DELAYED,
                     Config(device_pages=2048, max_inodes=64,
                            delayed_interval_ms=0.05, delayed_batch=64))
    # One live page; eight live pages (two of them duplicates); eight
    # pages all overwritten before the worker runs, then the eight that
    # overwrote them; eight pages of which two are overwritten, then
    # those two; one page of a file unlinked while its node waits.
    fs.write(fs.create("/one"), 0, _page(1))
    fs.write(fs.create("/eight"), 0, _pages(1, 2, 3, 4, 1, 2, 5, 6))
    ino = fs.create("/stale")
    fs.write(ino, 0, _pages(*range(10, 18)))
    fs.write(ino, 0, _pages(*range(20, 28)))
    ino = fs.create("/part")
    fs.write(ino, 0, _pages(*range(30, 38)))
    fs.write(ino, 2 * PAGE_SIZE, _pages(40, 41))
    fs.write(fs.create("/gone"), 0, _page(50))
    fs.unlink("/gone")
    log: list = []
    daemon = fs.daemon

    def logged(name, real):
        def call(*args):
            result = real(*args)
            log.append((name, args, result))
            return result
        return call

    daemon.validate_node = logged("validate", daemon.validate_node)
    daemon.fingerprint_page = logged("fingerprint", daemon.fingerprint_page)
    daemon.stage_page = logged("stage", daemon.stage_page)

    def op(self, fn, holder, **kw):
        if holder.startswith("worker-"):
            kind = ("dequeue" if kw.get("shard") is not None
                    else "fact" if kw.get("fact") else "op")
            log.append(("op", kind, None))
        return ConcurrentVFS.op(self, fn, holder, **kw)

    vfs = overriding(ConcurrentVFS, op=op)(fs, workers=1)
    fs.obs.tracer.reset()
    vfs.run([], dd)
    assert len(fs.dwq) == 0

    nodes: dict = {}
    for name, args, result in log:
        if args == "dequeue":
            rec = {"ops": [], "fingerprints": 0, "stages": 0, "locks": []}
        elif name == "validate":
            node = args[0]
            nodes[node.entry_addr] = rec
            rec["ino"] = node.ino
            rec["live"] = result is not None
            rec["pages"] = len(result.page_offsets) if result else 0
        elif name == "fingerprint":
            rec["fingerprints"] += 1
        elif name == "stage":
            rec["stages"] += 1
        if name == "op":
            rec["ops"].append(args)

    flight = fs.obs.flight.dump()
    assert flight["dropped"] == 0, "flight ring overflowed"
    segments: list = []
    for ev in flight["events"]:
        if ev["kind"] != "lock" or not ev["holder"].startswith("worker-"):
            continue
        if ev["name"].startswith("shard:"):
            segments.append([])
        segments[-1].append((ev["name"], ev["holder"]))
    assert len(segments) == len(nodes)
    for rec, locks in zip(nodes.values(), segments):
        rec["locks"] = locks
    return fs, nodes


@pytest.fixture(scope="module")
def counted():
    return run_counted()


def by_path(fs, nodes, path):
    ino = fs.lookup(path)
    return [rec for rec in nodes.values() if rec["ino"] == ino]


class TestOpsPerNode:
    def test_every_queued_node_was_processed(self, counted):
        fs, nodes = counted
        assert len(nodes) == 7
        assert all(rec["ops"][0] == "dequeue" for rec in nodes.values())

    @pytest.mark.parametrize("path", ["/one", "/eight"])
    def test_live_node_is_three_ops_whatever_its_pages(self, counted,
                                                       path):
        fs, nodes = counted
        (rec,) = by_path(fs, nodes, path)
        assert rec["ops"] == ["dequeue", "op", "fact", "op"], rec
        assert rec["fingerprints"] == rec["pages"]
        # /eight's pages 1 and 2 repeat: six distinct fingerprints.
        assert rec["stages"] == {"/one": 1, "/eight": 6}[path]

    def test_all_stale_node_skips_the_stage_op(self, counted):
        fs, nodes = counted
        stale, live = by_path(fs, nodes, "/stale")
        assert stale["pages"] == 8 and stale["stages"] == 0
        assert stale["fingerprints"] == 8
        assert stale["ops"] == ["dequeue", "op", "op"], stale
        assert all(name != "fact" for name, _ in stale["locks"])
        assert live["ops"] == ["dequeue", "op", "fact", "op"], live
        assert live["stages"] == 8

    def test_partly_stale_node_stages_its_live_pages(self, counted):
        fs, nodes = counted
        first, second = by_path(fs, nodes, "/part")
        assert (first["pages"], first["fingerprints"], first["stages"]) \
            == (8, 8, 6)
        assert first["ops"] == ["dequeue", "op", "fact", "op"], first
        assert (second["pages"], second["stages"]) == (2, 2)

    def test_stale_entry_is_one_op(self, counted):
        _fs, nodes = counted
        (rec,) = [r for r in nodes.values() if not r["live"]]
        assert rec["ops"] == ["dequeue", "op"], rec
        assert rec["fingerprints"] == rec["stages"] == 0
        # The unlinked file has no inode lock to take: the shard's alone.
        assert [name for name, _ in rec["locks"]] == [rec["locks"][0][0]]
        assert rec["locks"][0][0].startswith("shard:")


class TestFactLock:
    def test_each_staging_node_takes_fact_once(self, counted):
        _fs, nodes = counted
        for addr, rec in nodes.items():
            facts = [holder for name, holder in rec["locks"]
                     if name == "fact"]
            expected = 1 if rec["stages"] else 0
            assert len(facts) == expected, (addr, rec)
            assert all(h.startswith("worker-") for h in facts)
