"""Structural guard: only the device reads its volatility tables.

Which lines are not yet durable is kept in two forms — per line (the
shadow and the ``dirty`` / ``flushing`` sets) and per held run (one
pre-image per non-temporal store onto empty tables) — plus the count of
a durable store's lines in flight.  A reader outside ``pm/device.py``
would see one form and miss the other, so nothing else in ``src/repro``
may touch them: ``volatile_lines``, ``crash`` and ``save_image`` are the
questions the device answers whole.
"""

import ast
import pathlib

import pytest

import repro

_SRC = pathlib.Path(repro.__file__).parent
_DEVICE = _SRC / "pm" / "device.py"
PRIVATE = frozenset({"_shadow", "_dirty", "_flushing", "_runs", "_in_flight"})


def private_reads(source: str) -> list[int]:
    """Lines that name one of the tables as an attribute (``x._runs``,
    ``getattr(x, "_shadow")`` as a constant name)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in PRIVATE:
            found.append(node.lineno)
        elif isinstance(node, ast.Constant) and node.value in PRIVATE:
            found.append(node.lineno)
    return found


def test_nothing_outside_the_device_reads_its_volatility_tables():
    for path in sorted(_SRC.rglob("*.py")):
        if path == _DEVICE:
            continue
        lines = private_reads(path.read_text())
        assert not lines, (
            f"{path.relative_to(_SRC)}:{lines}: ask the device "
            f"(volatile_lines, crash, save_image), not its tables")
    # The scan is live: the device itself is full of them.
    assert len(private_reads(_DEVICE.read_text())) > 20


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
