"""Running out of space in the middle of an operation is an atomic
rejection (ROADMAP item 1c; docs/CONSISTENCY.md §4, the abort row).

Every operation that stages FACT counts, every namespace operation and a
mid-page truncate is run with its k-th page allocation (or inode-table
slot) refused, for every k it makes, and so is the grow that zeroes
the bytes a truncate's refused rewrite left.  Each time the caller must get a
typed ``NoSpace`` and the image it had before the call: no staged UC, no
entry, page, inode, name, size or tenant charge left, a daemon node back
on the DWQ — checked on the *live* mount, again after a torn crash +
recovery (against the same crash and recovery of the image before the
call), and a retry without the fault must succeed.  An operation that
takes its log pages before it stores anything fires no persist event
when it is refused.
"""

import functools
import io
from unittest import mock

import numpy as np
import pytest

from repro.backup import receive_backup, recv, rollback_staging, send_backup
from repro.dedup import DeNovaFS, HybridDeNovaFS, InlineDedupFS
from repro.dedup.hybrid import MODE_DELAYED
from repro.failure import check_fs_invariants
from repro.nova import PAGE_SIZE
from repro.nova.fs import NoSpace
from repro.nova.log import ENTRIES_PER_PAGE
from repro.pm import DRAM, PMDevice, SimClock
from repro.pm.allocator import AllocError


def page_of(tag):
    return bytes([tag & 0xFF]) * PAGE_SIZE


def mkfs(cls=DeNovaFS, pages=1024, max_inodes=64):
    dev = PMDevice(pages * PAGE_SIZE, model=DRAM, clock=SimClock())
    return cls.mkfs(dev, max_inodes=max_inodes)


def state(fs):
    """Everything a failed operation could leave behind."""
    return (fs.allocator.free_pages, len(fs.caches), len(fs.dwq),
            {idx: (e.refcount, e.update_count)
             for idx, e in fs.fact.live_entries().items()},
            dict(fs.tenants.usage_pages), dict(fs.tenants.usage_inodes),
            [(path, cache.inode.size, cache.inode.links)
             for path, _ino, cache in fs.walk()])


# -- scenarios: build() -> (fs, op(fs), verify(fs), undo(fs) | None) ---------

def _read_all(fs, path, want):
    assert fs.read(fs.lookup(path), 0, len(want)) == want


def reflink_deduplicated():
    fs = mkfs()
    data = b"".join(page_of(t) for t in range(1, 9))
    fs.write(fs.create("/src"), 0, data)
    fs.daemon.drain()
    return (fs, lambda f: f.reflink("/src", "/dst"),
            lambda f: _read_all(f, "/dst", data), None)


def reflink_pending():
    """Source dedup still queued: the reflink inserts the entries itself
    (pages 0 and 2 are equal, so it also shares its own claim)."""
    fs = mkfs()
    data = page_of(1) + page_of(2) + page_of(1) + page_of(3)
    fs.write(fs.create("/src"), 0, data)
    assert len(fs.dwq) == 1
    return (fs, lambda f: f.reflink("/src", "/dst"),
            lambda f: _read_all(f, "/dst", data), None)


def _daemon_at_log_boundary(cls):
    """One file whose log page is exactly full of single-page duplicate
    writes: the first node's redirect entry needs a new log page."""
    fs = mkfs(cls)
    if cls is HybridDeNovaFS:
        fs.force_mode(MODE_DELAYED)
    fs.write(fs.create("/canon"), 0, page_of(7))
    fs.write(fs.create("/warm"), 0, page_of(7))
    fs.daemon.drain()  # the canonical's entry exists (hybrid: materialised)
    ino = fs.create("/f")
    for i in range(ENTRIES_PER_PAGE):
        fs.write(ino, i * PAGE_SIZE, page_of(7))
    assert len(fs.dwq) == ENTRIES_PER_PAGE

    def verify(f):
        f.daemon.drain()
        _read_all(f, "/f", page_of(7) * ENTRIES_PER_PAGE)
        assert f.space_stats()["physical_pages"] == 1

    return fs, lambda f: f.daemon.process_one(), verify, None


def daemon_node():
    return _daemon_at_log_boundary(DeNovaFS)


def hybrid_daemon_node():
    return _daemon_at_log_boundary(HybridDeNovaFS)


@functools.cache
def _stream():
    """``(wire bytes, file content)`` of a 6-page snapshot ``s1``."""
    src = mkfs()
    data = b"".join(page_of(t) for t in range(11, 17))
    src.write(src.create("/data"), 0, data)
    src.daemon.drain()
    src.snapshot("s1")
    buf = io.BytesIO()
    send_backup(src, "s1", buf)
    return buf.getvalue(), data


def recv_snapshot():
    """A 6-page snapshot into a target that already holds two of the
    pages; the fault window is the file ingest (the dedup transaction —
    the stage directory and cursor around it are plain namespace ops).
    A failed ingest keeps its resumable stage by design; the documented
    ``rollback_staging`` removes it (the drain retires the DWQ nodes of
    the unlinked cursor file), and then nothing may be left."""
    fs = mkfs()
    fs.write(fs.create("/have"), 0, page_of(11) + page_of(12))
    fs.daemon.drain()

    def op(f):
        ingest = recv._ingest_file

        def windowed(*args):
            _WINDOW[0] = True
            try:
                return ingest(*args)
            finally:
                _WINDOW[0] = False

        _WINDOW[0] = False
        try:
            with mock.patch.object(recv, "_ingest_file", windowed):
                receive_backup(f, io.BytesIO(_stream()[0]))
        finally:
            _WINDOW[0] = True

    def undo(f):
        rollback_staging(f)
        f.daemon.drain()

    return (fs, op,
            lambda f: _read_all(f, "/.snapshots/s1/data", _stream()[1]),
            undo)


def _write_scenario(cls):
    fs = mkfs(cls)
    fs.write(fs.create("/a"), 0, page_of(1) + page_of(2))
    fs.daemon.drain()
    data = page_of(1) + page_of(3) + page_of(3) + page_of(4)
    fs.create("/b")
    return (fs, lambda f: f.write(f.lookup("/b"), 0, data),
            lambda f: _read_all(f, "/b", data), None)


def inline_write():
    return _write_scenario(InlineDedupFS)


def delayed_write():
    return _write_scenario(DeNovaFS)


# -- log pages: every op takes them before its first store ------------------

def _fill_dir(fs, path, entries):
    """``path`` with ``entries`` dentries, so its tail sits on a page
    boundary at ENTRIES_PER_PAGE."""
    fs.mkdir(path)
    for i in range(entries):
        fs.create(f"{path}/e{i}")


def _namespace_scenario(op, verify, boundary=False, dirs=("/d",)):
    """``op`` into the directories ``dirs``: fresh (no log page yet), or
    each with its tail on a page boundary."""
    fs = mkfs(max_inodes=160)
    fs.write(fs.create("/f"), 0, page_of(5))
    for path in dirs:
        _fill_dir(fs, path, ENTRIES_PER_PAGE if boundary else 0)
    return fs, op, verify, None


def create_fresh():
    return _namespace_scenario(lambda f: f.create("/d/x"),
                               lambda f: f.lookup("/d/x"))


def mkdir_fresh():
    return _namespace_scenario(lambda f: f.mkdir("/d/x"),
                               lambda f: f.listdir("/d/x"))


def _symlink_scenario(boundary):
    return _namespace_scenario(
        lambda f: f.symlink("/f", "/d/x"),
        lambda f: _read_all(f, "/d/x", page_of(5)), boundary=boundary)


def symlink_fresh():
    return _symlink_scenario(False)


def symlink_at_boundary():
    return _symlink_scenario(True)


def rename_at_boundaries():
    """Cross-directory: both parents' next log pages are linked before
    the journal commits."""
    def op(f):
        f.rename("/a/e0", "/b/x")

    def verify(f):
        assert f.lookup("/b/x") and not f.exists("/a/e0")

    return _namespace_scenario(op, verify, boundary=True, dirs=("/a", "/b"))


def link_fresh():
    return _namespace_scenario(lambda f: f.link("/f", "/d/x"),
                               lambda f: _read_all(f, "/d/x", page_of(5)))


def staged_unlink_at_boundary():
    """The file exists only in the staging log; its parent's next log
    page is reserved before the staged record is discarded."""
    fs = _namespace_scenario(None, None, boundary=True)[0]
    fs.enable_staging()
    fs.create("/d/s")
    assert fs.staging.has_pending_create(fs.lookup("/d/s"))

    def verify(f):
        assert not f.exists("/d/s")

    return fs, lambda f: f.unlink("/d/s"), verify, None


def midpage_truncate():
    """A 2-page file truncated to 4 196 B: the setattr, the commit point,
    crosses into the file's next log page.  A refused rewrite of the
    partial page after it is no refusal of the truncate."""
    fs = mkfs()
    ino = fs.create("/t")
    fs.write(ino, 0, page_of(1) + page_of(2))
    for _ in range(ENTRIES_PER_PAGE - 1):        # no slot left
        fs.write(ino, 0, page_of(1))
    size = PAGE_SIZE + 100

    def verify(f):
        t = f.lookup("/t")
        assert f.stat(t).size == size
        f.truncate(t, 2 * PAGE_SIZE)             # grow: zeros past EOF
        want = page_of(1) + page_of(2)[:100] + bytes(PAGE_SIZE - 100)
        _read_all(f, "/t", want)

    return fs, lambda f: f.truncate(f.lookup("/t"), size), verify, None


def midpage_grow():
    """The grow after a mid-page shrink whose rewrite was refused: the
    zero-tailed partial page and its write entry, which crosses into the
    file's next log page, commit with the new size."""
    fs = mkfs()
    ino = fs.create("/t")
    fs.write(ino, 0, page_of(1) + page_of(2))
    for _ in range(ENTRIES_PER_PAGE - 2):        # the setattr fills it
        fs.write(ino, 0, page_of(1))
    with mock.patch.object(fs.allocator, "alloc",
                           side_effect=AllocError("injected")):
        fs.truncate(ino, PAGE_SIZE + 100)        # the cut bytes stay
    want = page_of(1) + page_of(2)[:100] + bytes(PAGE_SIZE - 100)
    return (fs, lambda f: f.truncate(f.lookup("/t"), 2 * PAGE_SIZE),
            lambda f: _read_all(f, "/t", want), None)


def inline_write_across_log_page():
    """Duplicate pages split the write into single-page runs whose
    entries cross into the file's next log page."""
    fs = mkfs(InlineDedupFS)
    fs.write(fs.create("/dup"), 0, page_of(9))
    ino = fs.create("/b")
    for i in range(ENTRIES_PER_PAGE - 2):        # two slots left
        fs.write(ino, 0, page_of(100 + i))
    data = page_of(9) + page_of(3) + page_of(9) + page_of(4)
    return (fs, lambda f: f.write(f.lookup("/b"), 0, data),
            lambda f: _read_all(f, "/b", data), None)


#: Rows whose refused op must fire no persist event: it takes every log
#: page before its first store.
STORES_NOTHING = {create_fresh, mkdir_fresh, symlink_fresh,
                  symlink_at_boundary, rename_at_boundaries, link_fresh,
                  staged_unlink_at_boundary, midpage_truncate, midpage_grow}


# -- the fault ---------------------------------------------------------------

_WINDOW = [True]    # requests count only while open (recv narrows it)


def arm(fs, site, k):
    """Refuse the k-th counted request from now on."""
    calls = [0]
    if site == "alloc":
        owner, name, exc = fs.allocator, "alloc", AllocError
    else:
        owner, name, exc = fs.itable, "alloc", RuntimeError
    real = getattr(owner, name)

    def refusing(*args, **kwargs):
        calls[0] += _WINDOW[0]
        if _WINDOW[0] and calls[0] == k:
            raise exc(f"injected: {site} request {k} refused")
        return real(*args, **kwargs)

    setattr(owner, name, refusing)


def disarm(fs):
    vars(fs.allocator).pop("alloc", None)
    vars(fs.itable).pop("alloc", None)


def fail_at(build, site, k):
    """Run the scenario's op with the k-th request refused.  Returns
    ``(fs, before, verify, op, persists, pre)``, ``persists`` the persist
    events the refused op fired and ``pre`` a fork of the device before
    it, or None when the op makes fewer than k requests (and so
    succeeded)."""
    fs, op, verify, undo = build()
    before, pre, persists = state(fs), fs.dev.fork(), []
    arm(fs, site, k)
    fs.dev.hooks.on_persist = lambda n, _dev: persists.append(n)
    try:
        op(fs)
    except NoSpace:
        pass   # typed; an AllocError / RuntimeError would propagate
    else:
        return None
    finally:
        disarm(fs)
        fs.dev.hooks.on_persist = None
    if undo is not None:
        undo(fs)
    return fs, before, verify, op, persists, pre


def recovered(fs, dev, k):
    """``dev`` crashed torn (seeded by ``k``) and mounted."""
    dev.crash("torn", rng=np.random.default_rng(k))
    dev.recover_view()
    return type(fs).mount(dev)


SWEEPS = [
    (reflink_deduplicated, "alloc"),
    (reflink_pending, "alloc"),
    (daemon_node, "alloc"),
    (hybrid_daemon_node, "alloc"),
    (recv_snapshot, "alloc"),
    (inline_write, "alloc"),
    (delayed_write, "alloc"),
    (reflink_deduplicated, "inode"),
    (reflink_pending, "inode"),
    (recv_snapshot, "inode"),
    (create_fresh, "alloc"),
    (create_fresh, "inode"),
    (mkdir_fresh, "alloc"),
    (mkdir_fresh, "inode"),
    (symlink_fresh, "alloc"),
    (symlink_fresh, "inode"),
    (symlink_at_boundary, "alloc"),
    (symlink_at_boundary, "inode"),
    (rename_at_boundaries, "alloc"),
    (link_fresh, "alloc"),
    (staged_unlink_at_boundary, "alloc"),
    (midpage_truncate, "alloc"),
    (midpage_grow, "alloc"),
    (inline_write_across_log_page, "alloc"),
]


@pytest.mark.parametrize(
    "build,site", SWEEPS, ids=[f"{b.__name__}-{s}" for b, s in SWEEPS])
def test_kth_request_refused_is_an_atomic_rejection(build, site):
    k = 0
    while True:
        k += 1
        failed = fail_at(build, site, k)
        if failed is None:
            break
        fs, before, verify, op, persists, pre = failed
        pre.close()
        # Live mount: consistent, and exactly the image before the call.
        check_fs_invariants(fs)
        assert state(fs) == before, f"{site} #{k}: residue on the live mount"
        if build in STORES_NOTHING:
            assert persists == [], f"{site} #{k}: stored before refusing"
        # A retry without the fault succeeds.
        op(fs)
        verify(fs)
        check_fs_invariants(fs)

        # The same after a torn crash + recovery of the failed image: what
        # the same crash and recovery make of the image before the call.
        fs, _before, verify, op, _persists, pre = fail_at(build, site, k)
        before = state(recovered(fs, pre, k))
        pre.close()
        rec = recovered(fs, fs.dev, k)
        check_fs_invariants(rec)
        assert state(rec) == before, f"{site} #{k}: residue after recovery"
        op(rec)
        verify(rec)
    assert k > 1, "the operation never asked for the resource"


def test_full_device_failed_reflink_then_unlink_frees_everything():
    """On a device with no free page left, a refused reflink must not pin
    the source: unlinking it afterwards frees all 8 data pages and the
    log page (a leaked staged UC defers every one of those reclaims)."""
    fs = mkfs()
    data = b"".join(page_of(t) for t in range(1, 9))
    fs.write(fs.create("/src"), 0, data)
    fs.daemon.drain()
    ballast = fs.create("/ballast")
    with pytest.raises(NoSpace):      # fill the device to the last page
        while True:
            fs.write(ballast, fs.stat(ballast).size, page_of(0xEE))
    assert fs.allocator.free_pages == 0
    with pytest.raises(NoSpace):
        fs.reflink("/src", "/dst")
    check_fs_invariants(fs)
    fs.unlink("/src")
    assert fs.allocator.free_pages == 9
    assert not fs.obs.registry.counter("dedup.uc_deferred_removes_total").value
    check_fs_invariants(fs)
    fs.unmount()
    check_fs_invariants(DeNovaFS.mount(fs.dev))


def test_hybrid_miss_branch_abort_keeps_only_the_settled_canonical():
    """The hybrid daemon's own branch: the node that *materialises* a
    weak-only canonical's entry and then finds no log page.  The abort
    drops the node's staged unit; the canonical keeps the settled
    ``RFC=1`` its live mapping is owed, and the re-run lands on 2."""
    fs = mkfs(HybridDeNovaFS)
    fs.force_mode(MODE_DELAYED)
    fs.write(fs.create("/canon"), 0, page_of(7))
    fs.daemon.drain()                 # weak-registered only: no entry yet
    assert not fs.fact.live_entries()
    ino = fs.create("/f")
    for i in range(ENTRIES_PER_PAGE):
        fs.write(ino, i * PAGE_SIZE, page_of(7))
    before = state(fs)
    arm(fs, "alloc", 1)
    with pytest.raises(NoSpace):
        fs.daemon.process_one()
    disarm(fs)
    check_fs_invariants(fs)
    (entry,) = fs.fact.live_entries().values()
    assert (entry.refcount, entry.update_count) == (1, 0)
    assert state(fs)[:3] == before[:3]      # pages, inodes, DWQ depth
    fs.daemon.process_one()
    (entry,) = fs.fact.live_entries().values()
    assert (entry.refcount, entry.update_count) == (2, 0)
    fs.daemon.drain()
    check_fs_invariants(fs)
    assert fs.space_stats()["physical_pages"] == 1


def test_reflink_refused_at_its_dentry_drops_the_committed_clone():
    """The last request of a reflink is the destination *directory's*
    log page, after the clone's content and counts committed: the
    unpublished inode goes back through the ordinary reclaim."""
    fs = mkfs(max_inodes=128)
    data = page_of(1) + page_of(2)
    fs.write(fs.create("/src"), 0, data)
    fs.daemon.drain()
    fs.mkdir("/d")
    for i in range(ENTRIES_PER_PAGE):         # fill /d's log page exactly
        fs.symlink("/src", f"/d/l{i}")
    before = state(fs)
    arm(fs, "alloc", 2)                       # 1: clone's log, 2: /d's log
    with pytest.raises(NoSpace):
        fs.reflink("/src", "/d/dst")
    disarm(fs)
    check_fs_invariants(fs)
    assert state(fs) == before
    fs.reflink("/src", "/d/dst")
    _read_all(fs, "/d/dst", data)
    check_fs_invariants(fs)
