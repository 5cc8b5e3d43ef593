"""The structural guards share one parse: :mod:`tests._code_index`.

Each file is parsed at most once per session, importing a guard parses
nothing (collection pays no ``ast`` work), and no test module parses a
source file behind the index's back.
"""

import ast
import subprocess
import sys

from tests import _code_index as index
from tests._code_index import ROOT

#: Imports every module that reads the index with ``ast.parse`` counting,
#: and prints the count.
_IMPORT_ALL = """
import ast, importlib, sys
calls = []
real = ast.parse
ast.parse = lambda *a, **k: calls.append(a) or real(*a, **k)
for name in sys.argv[1:]:
    importlib.import_module(name)
print(len(calls))
"""


def _guard_modules() -> list[str]:
    """Dotted names of the test modules that import the index."""
    out = []
    for path in index.files(ROOT / "tests"):
        if path.name == "_code_index.py":
            continue
        for node in ast.walk(index.tree(path)):
            if isinstance(node, ast.ImportFrom) and (
                    node.module == "tests._code_index"
                    or node.module == "tests" and any(
                        a.name == "_code_index" for a in node.names)):
                rel = path.relative_to(ROOT).with_suffix("")
                out.append(".".join(rel.parts))
                break
    return out


def test_the_census_and_all_guards_read_the_index():
    guards = _guard_modules()
    assert len(guards) >= 14, guards
    for name in ("tests.core.test_options", "tests.core.test_layering",
                 "tests.pm.test_store_guard", "tests.obs.test_metric_pin"):
        assert name in guards


def test_importing_a_guard_parses_nothing():
    guards = _guard_modules()
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_ALL, *guards],
        capture_output=True, text=True, cwd=ROOT, check=True,
        env={"PYTHONPATH": f"{ROOT}:{ROOT / 'src'}", "PATH": ""})
    assert out.stdout.split() == ["0"], out.stdout + out.stderr


def test_each_file_is_parsed_at_most_once():
    path = index.SRC / "pm" / "clock.py"
    assert index.tree(path) is index.tree(path)
    assert index.PARSES[path] == 1
    assert max(index.PARSES.values()) == 1


def test_no_test_module_parses_a_file_itself():
    """``ast.parse`` in a test takes a pasted snippet, never a file's
    text: a file is read through the index."""
    own = []
    for path in index.files(ROOT / "tests"):
        if path.name == "_code_index.py":
            continue
        for node in ast.walk(index.tree(path)):
            if isinstance(node, ast.Call) \
                    and ast.unparse(node.func) == "ast.parse" \
                    and any(isinstance(n, ast.Attribute)
                            and n.attr in ("read_text", "read")
                            or isinstance(n, ast.Name) and n.id == "open"
                            for arg in node.args for n in ast.walk(arg)):
                own.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert not own, own
