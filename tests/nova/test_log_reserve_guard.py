"""Structural guard: a log page is taken only by the reservation.

An operation takes every log page its appends will reach before its
first persistent store (``LogManager.reserve``); an append links what
was reserved and allocates nothing, so a page that cannot be had refuses
the operation before it stores anything.  These checks fail when:

- ``nova/log.py`` calls the allocator anywhere but ``LogManager.reserve``;
- ``LogManager.append``, or a ``LogManager`` method it calls, names the
  allocator;
- any other module gains an ``allocator.alloc`` site.  The ones there
  take data pages (the write's *place* stage, inline dedup's,
  ``backup recv``'s ingest, relocation) or thorough GC's compacted
  chain, which takes all its pages before its first store and publishes
  them with one head update.
"""

import ast

import pytest

from tests._code_index import as_tree, src_tree, src_trees

#: ``(module under src/repro, enclosing def)`` of every allocation.
SITES = {
    ("nova/log.py", "LogManager.reserve"),
    ("nova/fs.py", "NovaFS._place_pages"),
    ("dedup/inline.py", "InlineDedupFS._store_page"),
    ("backup/recv.py", "_ingest_file"),
    ("repl/relocate.py", "_relocate_file"),
    ("nova/gc.py", "_thorough_gc"),
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _defs(tree, prefix=""):
    """``(qualname, node)`` of every def, methods as ``Class.name``."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef):
            yield from _defs(node, f"{prefix}{node.name}.")
        elif isinstance(node, _DEFS):
            yield f"{prefix}{node.name}", node


def _allocates(node) -> bool:
    """Whether ``node`` calls ``<...>.allocator.alloc(...)``."""
    return any(isinstance(call, ast.Call)
               and isinstance(call.func, ast.Attribute)
               and call.func.attr == "alloc"
               and getattr(call.func.value, "attr",
                           getattr(call.func.value, "id", None))
               == "allocator"
               for call in ast.walk(node))


def alloc_sites(code) -> set[str]:
    """The defs in ``code`` that allocate pages."""
    return {name for name, node in _defs(as_tree(code)) if _allocates(node)}


def append_allocators(code) -> list[str]:
    """The ``LogManager`` methods reachable from ``append`` through
    ``self.<method>(...)`` calls that name the allocator."""
    methods = {name.split(".", 1)[1]: node
               for name, node in _defs(as_tree(code))
               if name.startswith("LogManager.")}
    todo, seen, naming = ["append"], set(), []
    while todo:
        name = todo.pop()
        if name in seen or name not in methods:
            continue
        seen.add(name)
        for node in ast.walk(methods[name]):
            if getattr(node, "attr", getattr(node, "id", None)) \
                    in ("allocator", "alloc"):
                naming.append(name)
            if isinstance(node, ast.Attribute) \
                    and getattr(node.value, "id", None) == "self":
                todo.append(node.attr)
    return sorted(set(naming))


def test_log_pages_come_only_from_the_reservation():
    assert alloc_sites(src_tree("nova/log.py")) == {"LogManager.reserve"}
    assert append_allocators(src_tree("nova/log.py")) == []
    found = {(rel, name) for rel, tree in src_trees()
             for name in alloc_sites(tree)}
    assert found == SITES


_NEXT_PAGE_ALLOCATES = '''
class LogManager:
    def reserve(self, head, tail, n, cpu):
        return [self.allocator.alloc(1, cpu)]

    def append(self, ino, tail, raw, res):
        if tail % PAGE_SIZE == 0:
            tail = self.next_page(tail, res)
        return tail

    def next_page(self, tail, res):
        prev_page = tail // PAGE_SIZE - 1
        nxt = self.next_of(prev_page)
        if nxt == 0:
            nxt = self.allocator.alloc(1, res.cpu)
            self._link(prev_page, nxt)
        return nxt * PAGE_SIZE + LOG_HEADER_SIZE
'''


@pytest.mark.parametrize("pasted, check", [
    (_NEXT_PAGE_ALLOCATES, "sites"),
    (_NEXT_PAGE_ALLOCATES, "append"),
    ("class LogManager:\n"
     "    def append(self, ino, tail, raw, res):\n"
     "        page = self.allocator.alloc(1, 0)\n", "append"),
    ("class LogManager:\n"
     "    def append(self, ino, tail, raw, cpu):\n"
     "        return self._new_log_page(cpu)\n\n"
     "    def _new_log_page(self, cpu):\n"
     "        return self.allocator.alloc(1, cpu)\n", "append"),
])
def test_the_guard_trips_on_an_append_that_allocates(pasted, check):
    if check == "sites":
        assert alloc_sites(pasted) != {"LogManager.reserve"}
    else:
        assert append_allocators(pasted)
