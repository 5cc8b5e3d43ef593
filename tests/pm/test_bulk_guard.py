"""Structural guard: bulk charges and bulk reads keep their one form.

A run of *n* equal charges is ``SimClock.advance_n(ns, n)`` — a fold in C
that performs the *n* adds of the ``advance`` loop.  These checks fail when
``src/repro/pm`` grows back the per-charge iterator
(``_consume(map(clock.advance, repeat(ns, n)))``) or folds charges with
``sum()`` (compensated since 3.12: not the same adds), and when a
``PMDevice.read_view`` result — the device's own memory, which must not
outlive the statement that decodes it — is parked on an attribute anywhere
in ``src/repro``.
"""

import ast
import re

import pytest

from tests._code_index import SRC, as_tree, source, src_tree, src_trees
_CHARGE = re.compile(r"_ns\b|cost|charge|advance|repeat")


def _name(func):
    return getattr(func, "attr", getattr(func, "id", None))


def mapped_advances(source: str):
    """Lines of ``map(<...>.advance, ...)`` / ``map(advance, ...)``."""
    return [node.lineno for node in ast.walk(as_tree(source))
            if isinstance(node, ast.Call) and _name(node.func) == "map"
            and any(_name(arg) == "advance" for arg in node.args)]


def summed_charges(source: str):
    """Lines of ``sum(...)`` / ``fsum(...)`` over anything charge-like."""
    return [node.lineno for node in ast.walk(as_tree(source))
            if isinstance(node, ast.Call)
            and _name(node.func) in ("sum", "fsum")
            and _CHARGE.search(ast.unparse(node))]


def kept_views(source: str):
    """Lines that assign something built from a ``read_view(...)`` call
    to an attribute (``self.x = ...``, ``a.b, c = ...``, ``x.y += ...``)."""
    found = []
    for node in ast.walk(as_tree(source)):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        if node.value is None or not any(
                isinstance(t, ast.Attribute)
                for target in targets for t in ast.walk(target)):
            continue
        if any(isinstance(call, ast.Call) and _name(call.func) == "read_view"
               for call in ast.walk(node.value)):
            found.append(node.lineno)
    return found


def test_pm_charges_runs_through_advance_n_only():
    for rel, tree in src_trees():
        if not rel.startswith("pm/"):
            continue
        assert not mapped_advances(tree), (
            f"{rel}:{mapped_advances(tree)}: a run of equal "
            f"charges is clock.advance_n(ns, n)")
        assert not summed_charges(tree), (
            f"{rel}:{summed_charges(tree)}: sum() is not the "
            f"adds of the advance loop (compensated since 3.12)")
    # The clock itself calls no sum of any kind, whatever it is over.
    clock = src_tree("pm/clock.py")
    assert not [node.lineno for node in ast.walk(clock)
                if isinstance(node, ast.Call)
                and _name(node.func) in ("sum", "fsum")]


def test_no_read_view_is_kept_on_an_attribute_in_src():
    users = 0
    for rel, tree in src_trees():
        users += "read_view(" in source(SRC / rel)
        assert not kept_views(tree), (
            f"{rel}:{kept_views(tree)}: a read_view "
            f"is decoded and let go, never stored")
    assert users >= 2               # the device, and at least one caller


@pytest.mark.parametrize("pasted", [
    "_consume(map(self.clock.advance, repeat(self.model.clwb_ns, n)))",
    "_consume(map(advance, repeat(model.clwb_ns, count)))",
    "deque(map(clock.advance, [ns] * n), maxlen=0)",
])
def test_the_scan_trips_on_the_per_charge_iterator(pasted):
    assert mapped_advances(pasted)


@pytest.mark.parametrize("pasted", [
    "self.charged_ns = sum(repeat(ns, n), self.charged_ns)",
    "clock.now_ns += sum([model.clwb_ns] * n)",
    "total = math.fsum(costs)",
])
def test_the_scan_trips_on_summed_charges(pasted):
    assert summed_charges(pasted)


def test_the_scan_leaves_other_sums_alone():
    assert not summed_charges("held = size + sum(map(len, _idle))")
    assert not mapped_advances("list(map(shadow.setdefault, lines, rows))")


@pytest.mark.parametrize("pasted", [
    "self._table = self.dev.read_view(self.base, n)",
    "self._arr = np.frombuffer(dev.read_view(a, n), dtype=D)",
    "self.raw, n = dev.read_view(a, n), 0",
    "fs.cache.view: memoryview = dev.read_view(a, n)",
])
def test_the_scan_trips_on_each_kept_view(pasted):
    assert kept_views(pasted)


@pytest.mark.parametrize("fine", [
    "table = np.frombuffer(self.dev.read_view(self.base, n), dtype=D)",
    "self.cols = {f: table[f].copy() for f in fields}",
    "return {f: np.frombuffer(dev.read_view(a, n), D)[f].copy()}",
])
def test_the_scan_leaves_locals_and_copies_alone(fine):
    assert not kept_views(fine)
