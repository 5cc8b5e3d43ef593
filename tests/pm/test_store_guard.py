"""Structural guard: "store and make durable" is one device call.

``dev.write(a, x); dev.persist(a, n)`` was typed out at ~28 sites; it is
now ``dev.write(a, x, persist=True)`` (``pm/device.py``), one call the
device answers in one method body.  These checks fail when the two-line
form is pasted back anywhere in ``src/repro``, and when ``dedup/fact.py``
grows a second entry decoder next to its one ``struct`` codec.

``persist`` itself stays, for commits that cover several stores (the
rename journal's count + records, the superblock, a staging slab's
header): a ``persist`` whose range provably differs from the store just
before it is not the idiom.
"""

import ast

import pytest

from tests._code_index import as_tree, src_tree, src_trees

#: store method -> the length it stores, where the call alone tells:
#: an ``ast`` constant, the index of the length argument, or None.
_STORES = {"write": None, "write_atomic64": ast.Constant(8),
           "write_u32": ast.Constant(4), "zero_range": 1}


def _device_call(stmt):
    """``X.method(args...)`` as a statement -> its ``ast.Call``."""
    if (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call)
            and isinstance(stmt.value.func, ast.Attribute)
            and stmt.value.args):
        return stmt.value
    return None


def _same(a, b):
    return ast.dump(a) == ast.dump(b)


def store_persist_pairs(source: str):
    """Line numbers of ``X.persist(a, n)`` statements whose preceding
    sibling stores exactly ``[a, a + n)`` through the same ``X``."""
    found = []
    for node in ast.walk(as_tree(source)):
        for field in ("body", "orelse", "finalbody"):
            stmts = getattr(node, field, None)
            if not isinstance(stmts, list):
                continue
            for prev, stmt in zip(stmts, stmts[1:]):
                store, fence = _device_call(prev), _device_call(stmt)
                if (store is None or fence is None
                        or fence.func.attr != "persist"
                        or store.func.attr not in _STORES
                        or not _same(store.func.value, fence.func.value)
                        or not _same(store.args[0], fence.args[0])):
                    continue
                stored = _STORES[store.func.attr]
                if isinstance(stored, int):
                    stored = store.args[stored]
                if (stored is None or len(fence.args) < 2
                        or _same(stored, fence.args[1])):
                    found.append(stmt.lineno)
    return found


def test_no_store_then_persist_of_the_same_range_in_src():
    for rel, tree in src_trees():
        lines = store_persist_pairs(tree)
        assert not lines, (
            f"{rel}:{lines}: store + persist of the "
            f"same range is one call: write(..., persist=True)")


@pytest.mark.parametrize("pasted", [
    "dev.write(a, x)\ndev.persist(a, len(x))",
    "self.dev.write(addr, raw, nt=True)\nself.dev.persist(addr, ENTRY_SIZE)",
    "if x:\n    self.dev.write_atomic64(b + 8, v)\n"
    "    self.dev.persist(b + 8, 8)",
    "dev.write_u32(_OFF_CLEAN, 1)\ndev.persist(_OFF_CLEAN, 4)",
    "for s in slots:\n    dev.zero_range(s, HDR)\n    dev.persist(s, HDR)",
])
def test_the_scan_trips_on_each_pasted_back_form(pasted):
    assert store_persist_pairs(pasted)


@pytest.mark.parametrize("commit", [
    # nova/journal.py: count word and records, one persist over both
    "dev.write(base + H, blob)\ndev.write_atomic64(base + C, n)\n"
    "dev.persist(base + C, H - C + len(blob))",
    # nova/staging.py: two header words, persisted from the first
    "dev.write_atomic64(s.base, M)\ndev.write_atomic64(s.base + 8, 0)\n"
    "dev.persist(s.base, HDR)",
    "a.write(p, x)\nb.persist(p, len(x))",
    "dev.write(p, x, persist=True)",
])
def test_the_scan_leaves_multi_store_commits_alone(commit):
    assert not store_persist_pairs(commit)


def test_fact_entries_are_decoded_by_the_one_codec():
    """No ``int.from_bytes(raw[lo:hi], ...)`` field pick in
    ``dedup/fact.py``: ``_ENTRY`` (``struct.Struct``) is the layout."""
    tree = src_tree("dedup/fact.py")
    codecs = 0
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)):
            continue
        if node.func.attr == "Struct":
            codecs += 1
        assert not (node.func.attr == "from_bytes" and node.args
                    and isinstance(node.args[0], ast.Subscript)
                    and isinstance(node.args[0].slice, ast.Slice)), \
            f"dedup/fact.py:{node.lineno}: hand-rolled field decode"
    assert codecs == 1
