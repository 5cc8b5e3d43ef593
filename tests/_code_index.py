"""One parse per file per test session: the ``ast`` every structural
guard reads.

The census (``core/test_options.py``), the layer table
(``core/test_layering.py``) and the ``ast`` guards ask their questions of
the same source files.  Each ``.py`` file under ``src``, ``benchmarks``,
``examples`` and ``tests`` is read and parsed here at most once, on the
first request for it; importing this module (or a guard) reads nothing.
The trees are shared, so a guard walks them and never edits them.
"""

import ast
from collections import Counter
from functools import cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
DIRS = ("src", "benchmarks", "examples", "tests")

#: path -> times parsed.  ``core/test_code_index.py`` holds each at 1.
PARSES = Counter()


@cache
def files(top: Path = SRC) -> tuple[Path, ...]:
    """Every ``.py`` file under ``top``, sorted."""
    return tuple(sorted(top.rglob("*.py")))


@cache
def source(path: Path) -> str:
    return path.read_text()


@cache
def tree(path: Path) -> ast.Module:
    PARSES[path] += 1
    return ast.parse(source(path))


def src_trees() -> list[tuple[str, ast.Module]]:
    """``(posix path under src/repro, tree)`` for every module."""
    return [(p.relative_to(SRC).as_posix(), tree(p)) for p in files()]


def src_tree(rel: str) -> ast.Module:
    """The tree of ``src/repro/<rel>``."""
    return tree(SRC / rel)


def as_tree(code) -> ast.AST:
    """``code`` if it is a tree already, else the parse of a pasted
    snippet (a guard's mutation check: not a file, not cached)."""
    return code if isinstance(code, ast.AST) else ast.parse(code)
