"""Shared helpers for the figure scripts.

Every ``bench_*.py`` regenerates the paper's tables/figures, asserts the
paper's claim about each, and hands :func:`emit` the numbers.  They are
simulated-time measurements of a deterministic simulator (the host clock
is ``benchmarks/e2e``'s job), so ``pytest benchmarks/`` rewrites
``results/`` byte-identically and ``compare.py`` gates on exactly that.
"""

from __future__ import annotations

import json
import pathlib

RESULTS = pathlib.Path(__file__).parent / "results"


def emit(name: str, doc: dict, table: str) -> None:
    """Record one figure — the only code that writes ``RESULTS``.

    ``doc`` is every number the bench measured (JSON-able, string keys,
    unrounded), merged under ``name`` into ``baseline.json``; ``table``
    is its rendering for people, written to ``<name>.txt``.
    """
    print(f"\n{'=' * 72}\n{name}\n{'=' * 72}\n{table}\n")
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{name}.txt").write_text(table + "\n")
    path = RESULTS / "baseline.json"
    data = json.loads(path.read_text()) if path.exists() else {}
    data[name] = doc
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def rel(a: float, b: float) -> float:
    """Relative difference of a vs b (positive = a is larger)."""
    return (a - b) / b if b else 0.0
