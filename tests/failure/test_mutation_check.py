"""Mutation self-check: the fuzzer must catch both reintroduced bugs.

A checker proves itself by failing: each known historical bug is
reintroduced by ``monkeypatch``-ing away the one function that fixed it,
and the differential fuzzer (dense crash-point sweep over a targeted
short sequence) must flag it — and must stay silent without the patch.
Each failing sequence is then shrunk to a <= 10-op reproducer,
serialized through ``workloads.trace``, reloaded, and replayed to the
same verdict.

* RFC undercount — dedup recovery skips the step-6 RFC repair
  (``repro.dedup.recovery._repair_undercounts``), so a crash between a
  dedup target's tail commit and its count commit leaves a shared
  page's RFC below its live reference count (the §IV-D1 data-loss
  hazard: reclaim would free a page a file still maps).
* Torn inode record — NOVA recovery's table scan
  (``InodeTable.iter_valid``) passes over a torn record instead of
  releasing it, so a torn crash mid-``create`` leaves a half-written
  record marked valid (record ino still zero) that leaks the slot
  forever.
"""

import base64

from repro.dedup import recovery
from repro.fuzz.diff import FuzzConfig, run_case
from repro.nova.inode import InodeTable
from repro.fuzz.shrink import shrink
from repro.workloads.trace import Trace, TraceOp
from tests._seams import overriding

PAGE = b"\x07" * 4096


def rfc_ops():
    # One write whose own pages repeat the same image: the dedup drain
    # inserts the canonical entry and stages the duplicate's UC in one
    # transaction, opening the undercount crash window.
    data = PAGE * 3
    return [
        TraceOp(op="create", path="/a"),
        TraceOp(op="write", path="/a", offset=0, length=len(data),
                data_b64=base64.b64encode(data).decode()),
        TraceOp(op="dedup"),
    ]


def torn_ops():
    return [TraceOp(op="create", path=f"/f{i}") for i in range(4)]


RFC_CFG = overriding(FuzzConfig, modes=("discard",), phases=("pre",))(
    seed=0, budget=10 ** 6)
TORN_CFG = overriding(FuzzConfig, modes=("torn",), phases=("pre",))(
    seed=0, budget=10 ** 6)


def detect_shrink_replay(ops, cfg, match, tmp_path):
    """The shared protocol: detect, shrink, persist, replay, re-detect."""
    res = run_case(ops, cfg)
    assert not res.ok, "mutation not detected"
    assert match in str(res.violations[0])

    reduced = shrink(ops, lambda c: not run_case(c, cfg).ok)
    assert len(reduced) <= 10

    path = tmp_path / "repro.trace"
    Trace(ops=list(reduced)).save(path)
    loaded = Trace.load(path).ops
    r1 = run_case(loaded, cfg)
    r2 = run_case(loaded, cfg)
    assert not r1.ok
    assert [str(v) for v in r1.violations] == [str(v) for v in r2.violations]
    return reduced


class TestRfcUndercount:
    def test_detected_shrunk_and_replayable(self, tmp_path, monkeypatch):
        monkeypatch.setattr(recovery, "_repair_undercounts", lambda fs: 0)
        detect_shrink_replay(rfc_ops(), RFC_CFG, "undercounts", tmp_path)

    def test_clean_without_mutation(self):
        assert run_case(rfc_ops(), RFC_CFG).ok


def iter_valid_without_release(table, released):
    """The recovery table scan without its release: a torn record is
    passed over and stays valid on PM."""
    for ino in table._valid_inos():
        rec = table.read(ino)
        if rec.ino == ino:
            yield rec


class TestTornInodeRecord:
    def test_detected_shrunk_and_replayable(self, tmp_path, monkeypatch):
        monkeypatch.setattr(InodeTable, "iter_valid",
                            iter_valid_without_release)
        detect_shrink_replay(torn_ops(), TORN_CFG, "itable", tmp_path)

    def test_clean_without_mutation(self):
        assert run_case(torn_ops(), TORN_CFG).ok
