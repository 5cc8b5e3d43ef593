"""The one write pipeline: ENOSPC atomicity, obs parity, structure."""

import ast
from collections import Counter

import numpy as np
import pytest

from repro.core.config import Config, Variant, make_fs
from repro.dedup.inline import AdaptiveInlineFS, InlineDedupFS
from repro.failure import check_fs_invariants
from repro.nova.fs import NoSpace
from repro.nova.layout import PAGE_SIZE
from repro.pm import DRAM, PMDevice, SimClock
from tests._code_index import as_tree, src_trees

ALL_VARIANTS = pytest.mark.parametrize(
    "variant", list(Variant), ids=[v.value for v in Variant])


def _small_fs(variant):
    fs, _dd = make_fs(variant, Config(device_pages=512, max_inodes=32,
                                      cpus=1))
    return fs


def _unique_pages(rng, n=1) -> bytes:
    return rng.integers(0, 256, n * PAGE_SIZE, dtype=np.uint8).tobytes()


@ALL_VARIANTS
def test_enospc_at_log_page_boundary_is_atomic(variant):
    """One free page, log page full: the data page fits, the log page
    does not.  The write must be rejected as ``NoSpace`` and leave no
    trace — no leaked page, no staged UC, no FACT entry, no charge."""
    fs = _small_fs(variant)
    rng = np.random.default_rng(12)
    target = fs.create("/target")
    # Overwrite one page until the target's only log page is full: each
    # write retires the page it displaces, so no space is consumed.
    while True:
        fs.write(target, 0, _unique_pages(rng))
        cache = fs.caches[target]
        if cache.tail % PAGE_SIZE == 0:
            break
    if hasattr(fs, "daemon"):
        fs.daemon.drain()
    # Fill the device down to exactly one free page.  Few, large writes
    # keep the filler's own log on its first page.
    filler = fs.create("/filler")
    offset, chunk = 0, 16
    while fs.allocator.free_pages > 1:
        need_log = 0 if fs.caches[filler].inode.log_head else 1
        n = min(chunk, fs.allocator.free_pages - 1 - need_log)
        try:
            fs.write(filler, offset * PAGE_SIZE, _unique_pages(rng, n))
        except NoSpace:        # fragmented: no contiguous run of n pages
            chunk = max(1, chunk // 2)
            continue
        offset += n
    if hasattr(fs, "daemon"):
        fs.daemon.drain()
    assert fs.allocator.free_pages == 1
    assert fs.caches[target].tail % PAGE_SIZE == 0

    size = fs.stat(target).size
    content = fs.read(target, 0, size)
    with pytest.raises(NoSpace):
        fs.write(target, 0, _unique_pages(rng))
    assert fs.allocator.free_pages == 1
    assert fs.stat(target).size == size
    assert fs.read(target, 0, size) == content
    check_fs_invariants(fs)

    fs.unlink("/filler")
    fresh = _unique_pages(rng, 3)
    fs.write(target, 0, fresh)
    assert fs.read(target, 0, len(fresh)) == fresh
    check_fs_invariants(fs)


@ALL_VARIANTS
def test_overwrite_is_observed_on_every_variant(variant):
    """Every variant runs the same write body, so each one feeds the
    overwrite-latency histogram and tags its span with the page count."""
    fs = _small_fs(variant)
    ino = fs.create("/f")
    rng = np.random.default_rng(3)
    fs.write(ino, 0, _unique_pages(rng, 2))
    hist = fs.obs.registry.histogram("fs.overwrite_latency_ns")
    assert hist.count == 0
    fs.write(ino, 0, _unique_pages(rng, 2))
    assert hist.count == 1 and hist.sum > 0
    spans = [e for e in fs.obs.tracer.events if e.name == "fs.write"]
    assert len(spans) == 2
    assert all(dict(e.attrs)["pages"] == 2 for e in spans)


@pytest.mark.parametrize("cls", [InlineDedupFS, AdaptiveInlineFS])
def test_a_write_of_k_entries_retires_once(cls, monkeypatch):
    """An inline write whose duplicate pages split it into k entries
    retires what they displaced once: one fast-GC chain walk, one
    ``reclaim_extents`` over the joined extents, one tenant charge."""
    dev = PMDevice(512 * PAGE_SIZE, model=DRAM, clock=SimClock())
    fs = cls.mkfs(dev, max_inodes=32)
    rng = np.random.default_rng(7)
    dup = _unique_pages(rng)
    ino = fs.create("/f")
    fs.write(fs.create("/dup"), 0, dup)
    fs.write(ino, 0, _unique_pages(rng, 6))
    calls = Counter()
    for name in ("_maybe_gc_log", "reclaim_extents", "_append_and_commit"):
        real = getattr(cls, name)

        def counted(*args, _real=real, _name=name, **kw):
            out = _real(*args, **kw)
            calls[_name] += len(out) if _name == "_append_and_commit" else 1
            return out

        monkeypatch.setattr(cls, name, counted)
    charges, account = [], fs.tenants.account_pages
    monkeypatch.setattr(fs.tenants, "account_pages", lambda i, delta: (
        charges.append(delta), account(i, delta)))
    data = _unique_pages(rng) + dup + _unique_pages(rng, 2) + dup \
        + _unique_pages(rng)
    fs.write(ino, 0, data)
    assert calls == {"_append_and_commit": 5, "_maybe_gc_log": 1,
                     "reclaim_extents": 1}
    assert charges == [0]   # 6 pages mapped, 6 displaced
    assert fs.read(ino, 0, len(data)) == data
    assert fs.obs.registry.counter("fs.overwrite_pages_total").value == 6
    check_fs_invariants(fs)


# ------------------------------------------------------------------ structure

#: Who may touch the log's append/commit protocol, and the radix install.
_LOG_CALLERS = {"nova/log.py", "nova/fs.py"}
_INSTALL_CALLERS = {"nova/fs.py", "nova/recovery.py", "nova/gc.py",
                    "dedup/daemon.py"}   # daemon: the one redirect publisher


def _method_calls(tree, receiver, methods):
    """``<...>.<receiver>.<method>(...)`` calls, as (method, lineno)."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in methods):
            obj = node.func.value
            if receiver in (getattr(obj, "attr", None),
                            getattr(obj, "id", None)):
                yield node.func.attr, node.lineno


def test_no_hand_rolled_commit_sequence():
    """One primitive appends and commits; one pipeline (plus recovery,
    GC and the shared-file materialiser) installs into the radix tree.
    A new subsystem that needs either calls those — it cannot spell out
    an eleventh copy."""
    log_sites, install_sites = [], []
    for rel, tree in src_trees():
        for meth, line in _method_calls(
                tree, "log", {"append", "commit", "ensure_log"}):
            log_sites.append((rel, meth, line))
        for meth, line in _method_calls(tree, "index",
                                        {"install", "redirect"}):
            install_sites.append((rel, line))
    stray = [s for s in log_sites if s[0] not in _LOG_CALLERS]
    assert not stray, f"log protocol spelled out outside the primitive: {stray}"
    in_fs = sorted(m for rel, m, _l in log_sites if rel == "nova/fs.py")
    assert in_fs == ["append", "commit", "ensure_log"], log_sites
    stray = [s for s in install_sites if s[0] not in _INSTALL_CALLERS]
    assert not stray, f"radix install outside the pipeline: {stray}"


def _in_process_builds(code):
    """Line numbers of ``WriteEntry(..., dedupe_flag=DEDUPE_IN_PROCESS)``."""
    for node in ast.walk(as_tree(code)):
        if (isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "WriteEntry"
                and any(kw.arg == "dedupe_flag"
                        and getattr(kw.value, "id", None)
                        == "DEDUPE_IN_PROCESS" for kw in node.keywords)):
            yield node.lineno


def test_one_builder_of_in_process_redirects():
    """Every redirect (daemon, reflink, snapshot, ``backup recv``,
    relocation) is built by ``dedup.daemon.append_redirects``; the inline
    variants' write pipeline takes its flag from a hook, not the
    literal."""
    builders = {rel for rel, tree in src_trees()
                if any(_in_process_builds(tree))}
    assert builders == {"dedup/daemon.py"}
    assert list(_in_process_builds(
        "e = WriteEntry(file_pgoff=0, num_pages=1, block=b,\n"
        "               dedupe_flag=DEDUPE_IN_PROCESS)")) == [1]
