"""Structural guard: one namespace walk.

``NovaFS.walk`` is the one charged traversal of a directory tree,
``persist.remove_tree`` the one recursive removal and
``ModelFS._entries`` the model's walk.  A function anywhere else in
``src/repro`` that reads a directory's entries (``listdir``, a model
node's ``.children`` or a cache's ``.dentries``) and traverses — calls
itself, or drains a worklist it grows — is a hand-rolled copy and fails
here, unless it is one of the named exceptions below.
"""

import ast

import pytest

from tests._code_index import as_tree, src_trees

#: The walks every consumer composes.
ONE_WALK = frozenset({
    "nova/fs.py::NovaFS.walk",
    "nova/persist.py::remove_tree",
    "fuzz/model.py::ModelFS._entries",
})

#: Traversals that are not namespace walks by path, each with its reason.
EXCEPTIONS = {
    "fuzz/diff.py::_walk":
        "the oracle: reads DRAM dentries uncharged and must report a "
        "dangling dentry, which a lookup would turn into FileNotFound",
    "tenant/manager.py::TenantManager._adopt_subtree":
        "mount-time rebuild by inode: uncharged, guarded against hard "
        "links and dentry cycles",
    "nova/recovery.py::_collect_orphans":
        "mount-time reachability by inode: uncharged, guarded against "
        "dentry cycles",
    "nova/fs.py::NovaFS._is_ancestor":
        "rename's subtree check by inode: no paths, and only the moved "
        "subtree's directories are hydrated",
}

_READS = frozenset({"children", "dentries"})


def _own_nodes(fn):
    """Every node of ``fn``'s body, nested defs and classes excluded
    (those are judged on their own)."""
    out, todo = [], list(ast.iter_child_nodes(fn))
    while todo:
        node = todo.pop()
        out.append(node)
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))
    return out


def _is_walk(fn) -> bool:
    nodes = _own_nodes(fn)
    calls = [n.func for n in nodes if isinstance(n, ast.Call)]
    reads = any(isinstance(f, ast.Attribute) and f.attr == "listdir"
                for f in calls) or any(
        isinstance(n, ast.Attribute) and n.attr in _READS for n in nodes)
    recurses = any(
        isinstance(f, ast.Name) and f.id == fn.name
        or isinstance(f, ast.Attribute) and f.attr == fn.name
        and isinstance(f.value, ast.Name) and f.value.id in ("self", "cls")
        for f in calls)
    drained = {n.test.id for n in nodes
               if isinstance(n, ast.While) and isinstance(n.test, ast.Name)}
    grown = {f.value.id for f in calls
             if isinstance(f, ast.Attribute) and f.attr in ("append", "extend")
             and isinstance(f.value, ast.Name)}
    return reads and (recurses or bool(drained & grown))


def walks(code, rel: str = "<pasted>") -> set[str]:
    """``rel::Qual.name`` of every traversing function in ``code``."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = scope + [child.name]
                if _is_walk(child):
                    found.add(f"{rel}::{'.'.join(qual)}")
                visit(child, qual)
            elif isinstance(child, ast.ClassDef):
                visit(child, scope + [child.name])
            else:
                visit(child, scope)

    visit(as_tree(code), [])
    return found


def _all_walks() -> set[str]:
    return {w for rel, tree in src_trees() for w in walks(tree, rel)}


def test_every_traversal_is_the_one_walk_or_a_named_exception():
    stray = _all_walks() - ONE_WALK - set(EXCEPTIONS)
    assert not stray, (
        f"{sorted(stray)}: loop over NovaFS.walk (or ModelFS._entries), "
        f"or remove with persist.remove_tree")


def test_the_scan_is_live_and_no_exception_is_stale():
    """Each allowed walk and named exception is still found: a rename
    or a deletion must take its entry out of this file too."""
    assert ONE_WALK | set(EXCEPTIONS) <= _all_walks()


_WALK_FILES = '''
def _walk_files(fs, root):
    out = []

    def walk(path):
        for entry in sorted(fs.listdir(path)):
            child = f"{path}/{entry}"
            ino = fs.lookup(child, follow=False)
            itype = fs.caches[ino].inode.itype
            if itype == ITYPE_DIR:
                walk(child)
            elif itype == ITYPE_FILE:
                out.append(child)

    walk(root)
    return out
'''

_TEARDOWN = '''
def _teardown(fs, path):
    removed = 0
    for entry in list(fs.listdir(path)):
        child = f"{path}/{entry}"
        ino = fs.lookup(child, follow=False)
        if fs.caches[ino].inode.itype == ITYPE_DIR:
            removed += _teardown(fs, child)
        else:
            fs.unlink(child)
            removed += 1
    fs.rmdir(path)
    return removed
'''

_MODEL_NAMESPACE = '''
class ModelFS:
    def namespace(self):
        out = {}

        def walk(prefix, nid):
            node = self.nodes[nid]
            for name in sorted(node.children):
                child = self.nodes[node.children[name]]
                path = f"{prefix}/{name}"
                out[path] = (child.kind,)
                if child.kind == "dir":
                    walk(path, node.children[name])

        walk("", ROOT_ID)
        return out
'''

_STACK_WALK = '''
def files_under(fs, top):
    stack, out = [top], []
    while stack:
        path = stack.pop()
        for name in fs.listdir(path):
            stack.append(f"{path}/{name}")
    return out
'''


@pytest.mark.parametrize("pasted, name", [
    (_WALK_FILES, "_walk_files.walk"),
    (_TEARDOWN, "_teardown"),
    (_MODEL_NAMESPACE, "ModelFS.namespace.walk"),
    (_STACK_WALK, "files_under"),
])
def test_the_scan_trips_on_a_pasted_copy(pasted, name):
    assert walks(pasted) == {f"<pasted>::{name}"}


def test_the_scan_leaves_one_level_listings_and_delegation_alone():
    assert not walks('''
def list_snapshots(fs):
    return sorted(fs.listdir(SNAPSHOT_DIR))

class TracedFS:
    def listdir(self, path):
        return self.fs.listdir(path)
''')
