"""Structural guard: one recorder of device requests, ``tests/_ledger.py``.

A guard that counts or orders device requests asks the ledger
(``with Ledger(dev) as led`` and a query) instead of wrapping the
device's methods itself; the hand-rolled wrappers this replaced each had
their own tuple shape and saw one site at a time.  These checks fail when
any test module other than the ledger assigns or monkeypatches ``read``,
``read_view``, ``read_silent``, ``write`` or ``clwb`` on an object.  The
device's own reference tests under ``tests/pm/`` are exempt: they compare
two devices, not an operation's requests.
"""

import ast
import sys

import pytest

from repro.pm import PMDevice
from tests._code_index import ROOT, as_tree, files, tree
from tests._ledger import KINDS, Ledger, method_name

TESTS = ROOT / "tests"
EXEMPT = ("_ledger.py", "pm/")


def _names(node) -> set:
    """The string constants of a literal tuple or list."""
    if isinstance(node, (ast.Tuple, ast.List)):
        return {e.value for e in node.elts if isinstance(e, ast.Constant)}
    return set()


def device_patches(source) -> list[int]:
    """Line numbers that set a wrapped device method: ``x.read = f``,
    ``setattr(x, "read", f)`` / ``monkeypatch.setattr(x, "write", f)``
    (also as a dotted string target), and ``setattr(x, kind, f)`` where
    ``kind`` is the variable of a ``for kind in (...)`` loop over such
    names."""
    found, loop_vars, by_var = [], set(), []
    for node in ast.walk(as_tree(source)):
        if isinstance(node, ast.For) and isinstance(node.target, ast.Name) \
                and _names(node.iter) & set(KINDS):
            loop_vars.add(node.target.id)
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            if any(isinstance(t, ast.Attribute) and t.attr in KINDS
                   for t in targets):
                found.append(node.lineno)
        elif isinstance(node, ast.Call) and node.args and "setattr" in (
                getattr(node.func, "id", None),
                getattr(node.func, "attr", None)):
            first, name = node.args[0], node.args[1:2]
            if isinstance(first, ast.Constant):     # "pkg.Class.method"
                if str(first.value).rsplit(".", 1)[-1] in KINDS:
                    found.append(node.lineno)
            elif name and isinstance(name[0], ast.Constant):
                if name[0].value in KINDS:
                    found.append(node.lineno)
            elif name and isinstance(name[0], ast.Name):
                by_var.append((name[0].id, node.lineno))
    found += [line for var, line in by_var if var in loop_vars]
    return sorted(found)


def test_no_test_module_wraps_a_device_method():
    hits = []
    for path in files(TESTS):
        rel = path.relative_to(TESTS).as_posix()
        if not rel.startswith(EXEMPT):
            hits += [f"{rel}:{line}" for line in device_patches(tree(path))]
    assert not hits, (f"{hits}: record device requests with "
                      f"tests/_ledger.py's Ledger and query it")


@pytest.mark.parametrize("pasted", [
    "dev.read = read",
    "fs.dev.read_silent = counting",
    "monkeypatch.setattr(fs.dev, 'read', read)",
    "m.setattr(fs.dev, 'write', write)",
    "monkeypatch.setattr(PMDevice, 'clwb', clwb)",
    "monkeypatch.setattr('repro.pm.device.PMDevice.read_view', rv)",
    "setattr(dev, 'read_view', logged)",
    "for kind in ('read', 'read_view'):\n"
    "    setattr(dev, kind, wrap(getattr(dev, kind)))",
])
def test_the_scan_trips_on_each_pasted_recorder(pasted):
    assert device_patches(pasted)


@pytest.mark.parametrize("fine", [
    "monkeypatch.setattr(fs.fingerprinter, 'strong', strong)",
    "monkeypatch.setattr(DeNovaFS, 'reclaim_extents', counted)",
    "for name in ('structural_recover', 'live_entries'):\n"
    "    setattr(FACT, name, wrap(name))",
    "data = fs.read(ino, 0, n)",
    "with Ledger(fs.dev) as led:\n    fs.unlink('/a')",
])
def test_the_scan_leaves_other_patches_alone(fine):
    assert not device_patches(fine)


class _Base:
    def here(self):
        return sys._getframe()

    @classmethod
    def made(cls):
        return sys._getframe()


class _Derived(_Base):
    pass


def _plain():
    return sys._getframe()


@pytest.mark.parametrize("frame", [
    _Derived().here(), _Derived.made(), _plain()],
    ids=["inherited method", "classmethod", "function"])
def test_callers_are_named_without_co_qualname(frame):
    """Python 3.10 has no ``co_qualname``; the fallback names a caller
    as 3.11 does."""
    assert method_name(frame.f_code, frame.f_locals) == \
        frame.f_code.co_qualname


def test_a_nested_ledger_hands_the_device_back():
    dev = PMDevice(4096)
    with Ledger(dev) as outer:
        with Ledger(dev) as inner:
            dev.write(0, b"a")
        dev.read(0, 1)
    dev.clwb(0)
    assert [r.kind for r in inner.requests] == ["write"]
    assert [r.kind for r in outer.requests] == ["write", "read"]
    assert not set(KINDS) & set(vars(dev))
