"""Structural guard: one owner of the DWQ's layout.

``repro.dedup.dwq.DWQ`` keeps its nodes in per-CPU lanes (``_shards``)
and orders them by a global stamp on each node (``_seq``).  Everything
else asks the queue — ``head_lane``, ``steal_victim``, ``shard_len``,
``snapshot`` — so a change of layout is a change of one module.  A read
of either attribute anywhere else in ``src/repro`` fails here, unless it
is one of the named exceptions below.
"""

import ast

import pytest

from tests._code_index import as_tree, src_trees

OWNER = "dedup/dwq.py"

#: ``module::attribute`` reads that are not the queue's, with the reason.
EXCEPTIONS = {
    "sim/engine.py::_seq":
        "the engine's own event counter, the heap's tie-break; no DWQ "
        "node passes through it",
}

_LAYOUT = frozenset({"_shards", "_seq"})


def layout_reads(code, rel: str = "<pasted>") -> set[str]:
    """``rel::attr`` for each layout attribute ``code`` touches."""
    return {f"{rel}::{node.attr}" for node in ast.walk(as_tree(code))
            if isinstance(node, ast.Attribute) and node.attr in _LAYOUT}


def _stray_reads() -> set[str]:
    return {r for rel, tree in src_trees() if rel != OWNER
            for r in layout_reads(tree, rel)}


def test_only_the_queue_reads_its_lanes_and_stamps():
    stray = _stray_reads() - set(EXCEPTIONS)
    assert not stray, (
        f"{sorted(stray)}: ask the DWQ (head_lane, steal_victim, "
        f"shard_len, snapshot) instead of reading its layout")


def test_the_scan_is_live_and_no_exception_is_stale():
    """The owner is found by the scan, and each exception still
    names a read that exists."""
    assert layout_reads(dict(src_trees())[OWNER], OWNER) == {
        f"{OWNER}::_shards", f"{OWNER}::_seq"}
    assert set(EXCEPTIONS) <= _stray_reads()


_PICK_SHARD = '''
class ConcurrentVFS:
    def _pick_shard(self, own):
        best = best_seq = None
        for s in own:
            shard = self.fs.dwq._shards[s]
            if shard and (best_seq is None or shard[0]._seq < best_seq):
                best, best_seq = s, shard[0]._seq
        return best
'''

_DEPTH_GAUGE = '''
def register(registry, dwq, s):
    registry.gauge_fn(f"dwq.shard{s}.depth", lambda: len(dwq._shards[s]))
'''


@pytest.mark.parametrize("pasted, found", [
    (_PICK_SHARD, {"<pasted>::_shards", "<pasted>::_seq"}),
    (_DEPTH_GAUGE, {"<pasted>::_shards"}),
], ids=["pick_shard", "depth_gauge"])
def test_the_scan_trips_on_a_pasted_copy(pasted, found):
    assert layout_reads(pasted) == found


def test_the_scan_leaves_the_public_surface_alone():
    assert not layout_reads('''
def pick(dwq, own, rank):
    s = dwq.head_lane(own, rank)
    return (s, False) if s is not None else (dwq.steal_victim(own), True)
''')
