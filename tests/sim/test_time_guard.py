"""Structural guard: simulated time moves as integers, never from a view.

The clock (``SimClock.now_fs`` / ``charged_fs``), its captures (``fs``)
and the DES engine (``now_fs`` and its heap keys) count femtoseconds.
``now_ns`` / ``charged_ns`` / ``total_ns`` / ``Engine.now`` are float
views for readers; fed back into time they would round a second time
and make a result depend on how it was reached.  These checks fail when
an argument of ``sync_to(...)`` / ``timeout_fs(...)``, or an engine heap
key (``_push(...)`` / ``heappush(...)``), anywhere in ``src/repro`` is
built from one of those views.
"""

import ast

import pytest

from tests._code_index import SRC, as_tree, source, src_trees
_VIEWS = {"now", "now_ns", "charged_ns", "total_ns", "base_ns"}
_SINKS = {"sync_to", "timeout_fs", "_push", "heappush"}


def _name(node):
    return getattr(node, "attr", getattr(node, "id", None))


def fed_views(source: str):
    """Lines of a time sink called with anything built from a view."""
    return [node.lineno for node in ast.walk(as_tree(source))
            if isinstance(node, ast.Call) and _name(node.func) in _SINKS
            and any(_name(part) in _VIEWS
                    for arg in node.args for part in ast.walk(arg))]


def test_no_float_view_feeds_simulated_time_in_src():
    sinks = 0
    for rel, tree in src_trees():
        text = source(SRC / rel)
        sinks += sum(text.count(f"{s}(") for s in _SINKS)
        assert not fed_views(tree), (
            f"{rel}:{fed_views(tree)}: time moves "
            f"as femtoseconds (now_fs, charged_fs, CostCapture.fs)")
    assert sinks >= 6   # the clock, the engine, ConcurrentVFS, the replay


@pytest.mark.parametrize("pasted", [
    "fs.clock.sync_to(max(fs.clock.now_ns, self.now_ns))",
    "clock.sync_to(clock.now_ns + pool['makespan'])",
    "self._push(self.now + delay, ev)",
    "heapq.heappush(self._heap, (self.now + delay, self._seq, ev))",
    "yield eng.timeout_fs(fs_of(cap.total_ns + penalty))",
])
def test_the_scan_trips_on_each_view(pasted):
    assert fed_views(pasted)


@pytest.mark.parametrize("fine", [
    "fs.clock.sync_to(max(fs.clock.now_fs, self.now_fs))",
    "clock.sync_to(clock.now_fs + pool['makespan'])",
    "self._push(self.now_fs + delay_fs, ev)",
    "yield eng.timeout_fs(cap.fs + fs_of(penalty + extra))",
    "record.observe(eng.now - t_op)",
])
def test_the_scan_leaves_integers_and_readers_alone(fine):
    assert not fed_views(fine)
