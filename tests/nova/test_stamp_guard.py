"""Structural guard: no mtime is read off the clock.

An mtime on the media is a logical stamp (``NovaFS.stamp``), or a
background rewrite's copy of the inode's own ``mtime``.  A stamp taken
from simulated time would make every charge change move media bytes,
and would go back after a reload, whose device starts a fresh clock.
These checks fail when an ``mtime=`` keyword, an ``mtime`` variable or
a ``.mtime`` attribute anywhere in ``src/repro`` takes its value from a
clock reading (``now_ns``, ``now_fs``, ``charged_ns``, ``charged_fs``).
"""

import ast

import pytest

from tests._code_index import as_tree, src_trees

_READINGS = {"now", "now_ns", "now_fs", "charged_ns", "charged_fs"}


def _name(node):
    return getattr(node, "attr", getattr(node, "id", None))


def _mtime_values(tree):
    """``(line, value)`` of every value stored as an mtime."""
    for node in ast.walk(tree):
        if isinstance(node, ast.keyword) and node.arg == "mtime":
            yield node.value.lineno, node.value
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = getattr(node, "targets", [getattr(node, "target",
                                                        None)])
            if node.value is not None \
                    and any(_name(t) == "mtime" for t in targets):
                yield node.lineno, node.value


def clock_stamps(code) -> list[int]:
    """Lines where an mtime is built from a clock reading."""
    return [line for line, value in _mtime_values(as_tree(code))
            if any(_name(part) in _READINGS for part in ast.walk(value))]


def test_no_mtime_in_src_comes_from_the_clock():
    sinks = 0
    for rel, tree in src_trees():
        sinks += sum(1 for _ in _mtime_values(tree))
        assert not clock_stamps(tree), (
            f"{rel}:{clock_stamps(tree)}: an mtime is fs.stamp() or the "
            f"inode's own mtime, never a clock reading")
    assert sinks >= 14      # the stamp sites, the copies and the decoders


@pytest.mark.parametrize("pasted", [
    "entry = SetattrEntry(ino=ino, new_size=size,\n"
    "                     mtime=int(self.clock.now_ns))",
    "mtime = int(fs.clock.now_ns)",
    "cache.inode.mtime = int(fs.clock.now_ns)",
    "inode.mtime: int = fs.clock.now_fs // FS_PER_NS",
    "WriteEntry(block=b, mtime=max(cache.inode.mtime, clock.charged_ns))",
])
def test_the_scan_trips_on_each_clock_reading(pasted):
    assert clock_stamps(pasted)


@pytest.mark.parametrize("fine", [
    "mtime = self.stamp()",
    "WriteEntry(block=b, mtime=cache.inode.mtime)",
    "cache.inode.mtime = max(cache.inode.mtime, entry.mtime)",
    "Record(stage_ns=self.fs.clock.now_ns, seq=seq)",
    "t0 = fs.clock.now_fs",
])
def test_the_scan_leaves_stamps_and_other_fields_alone(fine):
    assert not clock_stamps(fine)
