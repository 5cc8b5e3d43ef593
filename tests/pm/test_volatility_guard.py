"""Structural guard: only the device reads its volatility tables.

Which lines are not yet durable is kept in two forms — per line (the
shadow and the ``dirty`` / ``flushing`` sets) and per held run (one
pre-image per non-temporal store onto empty tables) — plus the count of
a durable store's lines in flight.  A reader outside ``pm/device.py``
would see one form and miss the other, so nothing else in ``src/repro``
may touch them: ``crash``, ``fork`` and ``save_image`` are the questions
the device answers whole.
"""

import ast

import pytest

from tests._code_index import as_tree, src_tree, src_trees

_DEVICE = "pm/device.py"
PRIVATE = frozenset({"_shadow", "_dirty", "_flushing", "_runs", "_in_flight"})


def private_reads(source: str) -> list[int]:
    """Lines that name one of the tables as an attribute (``x._runs``,
    ``getattr(x, "_shadow")`` as a constant name)."""
    found = []
    for node in ast.walk(as_tree(source)):
        if isinstance(node, ast.Attribute) and node.attr in PRIVATE:
            found.append(node.lineno)
        elif isinstance(node, ast.Constant) and node.value in PRIVATE:
            found.append(node.lineno)
    return found


def test_nothing_outside_the_device_reads_its_volatility_tables():
    for rel, tree in src_trees():
        if rel == _DEVICE:
            continue
        lines = private_reads(tree)
        assert not lines, (
            f"{rel}:{lines}: ask the device "
            f"(crash, fork, save_image), not its tables")
    # The scan is live: the device itself is full of them.
    assert len(private_reads(src_tree(_DEVICE))) > 20


@pytest.mark.parametrize("pasted", [
    "n = len(fs.dev._shadow)",
    "if dev._dirty or dev._flushing: pass",
    "held = [run for run in self.dev._runs]",
    "busy = device._in_flight > 0",
    "tables = getattr(dev, '_shadow')",
])
def test_the_scan_trips_on_each_reader(pasted):
    assert private_reads(pasted)


def test_the_scan_leaves_public_and_other_names_alone():
    assert not private_reads("n = dev.volatile_lines + len(placed.runs)")
    assert not private_reads("extend_runs(runs, pgoff, block); x._stored")
