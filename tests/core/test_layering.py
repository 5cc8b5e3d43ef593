"""The import graph points down: the one table of layers, checked by ``ast``.

``LAYERS`` lists the packages of ``src/repro`` from the bottom up.  A
module may import from its own layer or from any layer below it, never
from one above: a lower layer that must run code owned by a higher one
exposes a hook the higher one registers at import (``DeNovaFS.
unclean_mount_hooks`` and ``snapshot_delete_hooks``).  Every import is
checked, at module level and inside functions.  Imports are hoisted to
module level everywhere except ``cli.py``, whose per-subcommand imports
each say why they are lazy; and the module-level graph has no cycle, so
each module can be read knowing only the ones it imports.

DESIGN.md's *System inventory* lists the same layers in the same order.
"""

import ast
import re
from importlib.util import resolve_name
from pathlib import Path

from tests._code_index import ROOT, SRC, files, source, tree

#: Bottom → top.  Names are dotted paths under ``repro`` ("" is the root
#: package); a module belongs to the layer of its longest matching name.
#: ``tenant`` sits between the two halves of ``nova`` because ``NovaFS``
#: checks quota on every create and write.
LAYERS = (
    ("pm",),
    ("sim", "obs"),
    ("nova.errors", "nova.layout", "nova.entries", "nova.inode", "nova.log",
     "nova.radix", "nova.persist", "nova.journal", "nova.checkpoint"),
    ("tenant",),
    ("nova.fs", "nova.recovery", "nova.gc", "nova.staging", "nova"),
    ("dedup",),
    ("backup",),
    ("conc",),
    ("repl",),
    ("failure",),
    ("workloads",),
    ("core", "analysis"),
    ("fuzz",),
    ("cli", "__main__", ""),
)

#: Function-level imports ``cli.py`` may keep, each marked ``# lazy:``.
MAX_LAZY = 18


def layer_of(module: str) -> int:
    best = None
    for i, layer in enumerate(LAYERS):
        for name in layer:
            if module == name or (name and module.startswith(name + ".")):
                if best is None or len(name) > best[0]:
                    best = (len(name), i)
    assert best is not None, f"repro.{module} is in no layer"
    return best[1]


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


MODULES = {_module_name(p): p for p in files()}


def _imports(module: str):
    """``(line, end_line, target, in_function)`` for every ``repro`` or
    stdlib import in ``module``; ``target`` is None for the stdlib."""
    path = MODULES[module]
    package = _label(module if path.name == "__init__.py"
                     else module.rpartition(".")[0])
    out = []

    def visit(node, in_function):
        for child in ast.iter_child_nodes(node):
            nested = in_function or isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef))
            if isinstance(child, ast.Import):
                for alias in child.names:
                    out.append((child.lineno, child.end_lineno,
                                _target(alias.name, None), in_function))
            elif isinstance(child, ast.ImportFrom):
                base = resolve_name("." * child.level + (child.module or ""),
                                    package)
                for alias in child.names:
                    out.append((child.lineno, child.end_lineno,
                                _target(base, alias.name), in_function))
            visit(child, nested)

    visit(tree(path), False)
    return out


def _target(base: str, name):
    if base != "repro" and not base.startswith("repro."):
        return None
    mod = base[len("repro."):] if base != "repro" else ""
    if name is not None:
        sub = f"{mod}.{name}" if mod else name
        if sub in MODULES:
            return sub
    return mod


def _label(module: str) -> str:
    return f"repro.{module}" if module else "repro"


def test_every_import_points_down():
    up = []
    for module in MODULES:
        for line, _end, target, _fn in _imports(module):
            if target is not None and layer_of(target) > layer_of(module):
                up.append(f"{MODULES[module].relative_to(SRC)}:{line}: "
                          f"{_label(module)} -> {_label(target)}")
    assert not up, f"{len(up)} imports point up:\n" + "\n".join(up)


def test_module_graph_is_acyclic():
    def plain(module):
        return MODULES[module].name != "__init__.py"

    edges = {m: sorted({t for _l, _e, t, fn in _imports(m)
                        if t is not None and not fn and t != m and plain(t)})
             for m in MODULES if plain(m)}
    state: dict[str, int] = {}    # 1 on the stack, 2 done
    cycles = []

    def dfs(m, stack):
        state[m] = 1
        stack.append(m)
        for t in edges[m]:
            if state.get(t) == 1:
                cycles.append(" -> ".join(stack[stack.index(t):] + [t]))
            elif t not in state:
                dfs(t, stack)
        stack.pop()
        state[m] = 2

    for m in edges:
        if m not in state:
            dfs(m, [])
    assert not cycles, "module-level import cycles:\n" + "\n".join(cycles)


def test_function_level_imports_only_in_cli():
    misplaced, unmarked, lazy = [], [], 0
    for module in MODULES:
        lines = source(MODULES[module]).splitlines()
        for line, end in sorted({(line, end) for line, end, _t, fn
                                 in _imports(module) if fn}):
            where = f"{MODULES[module].relative_to(SRC)}:{line}"
            if module != "cli":
                misplaced.append(where)
            elif not re.search(r"# lazy: \S", "\n".join(lines[line - 1:end])):
                unmarked.append(where)
            else:
                lazy += 1
    assert not misplaced, \
        "function-level imports outside cli.py:\n" + "\n".join(misplaced)
    assert not unmarked, \
        "cli.py imports without a '# lazy: <reason>':\n" + "\n".join(unmarked)
    assert lazy <= MAX_LAZY


def test_design_inventory_lists_the_layers_in_order():
    text = (ROOT / "DESIGN.md").read_text()
    section = text.split("## System inventory", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1] for line in section.splitlines()
            if line.startswith("| `")]
    assert [tuple(re.findall(r"`([\w.]+)`", cell)) for cell in rows] == \
        [tuple(_label(name) for name in layer) for layer in LAYERS]
