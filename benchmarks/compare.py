#!/usr/bin/env python
"""The benchmark gate: regenerate every figure, compare every number.

``python benchmarks/compare.py`` runs every ``bench_*.py`` next to the
committed results with :mod:`_common`'s results directory pointed at a
scratch directory, then reports

* every numeric leaf of the fresh ``baseline.json`` outside ``BAND`` of
  the committed one, and every leaf only one side has;
* every ``<name>.txt`` that is not byte-equal, or only one side has.

Exit status 1 on any difference, or when a bench's own claim assertion
fails.  There is nothing to select or tune: the simulated clock is
deterministic, so healthy code reproduces the committed artefacts
exactly, and any difference — a slowdown, an unexplained speed-up, a
dropped series — is re-baselined deliberately (``pytest benchmarks/``,
commit ``results/``), not absorbed.  Measurement configs and acceptance
bars live once, in the benches; this file knows no subsystem.
"""

from __future__ import annotations

import json
import pathlib
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import _common  # noqa: E402

#: Relative band per numeric leaf.  Not an allowance for noise — there
#: is none, and simulated time itself is an exact integer — only for the
#: last bits of the benches' own float arithmetic on it (rates, means),
#: which may differ between interpreters (3.12 compensates ``sum()``).
BAND = 1e-9


def iter_numeric_leaves(doc, path=()):
    """Yield (path-tuple, number) for every numeric leaf in a JSON doc."""
    if isinstance(doc, bool):
        return
    if isinstance(doc, (int, float)):
        yield path, float(doc)
    elif isinstance(doc, dict):
        for k in sorted(doc):
            yield from iter_numeric_leaves(doc[k], path + (str(k),))
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            yield from iter_numeric_leaves(v, path + (str(i),))


def compare_docs(current: dict, baseline: dict) -> list[dict]:
    """Numeric leaves outside ``BAND``, or present on one side only."""
    cur = dict(iter_numeric_leaves(current))
    base = dict(iter_numeric_leaves(baseline))
    violations = []
    for path in sorted(cur.keys() | base.keys()):
        was, now = base.get(path), cur.get(path)
        if was is None or now is None:
            # A series only one side has is a difference in its own
            # right: a silently dropped one would pass forever after.
            drift = float("inf")
        elif was == 0:
            drift = 0.0 if now == 0 else float("inf")
        else:
            drift = (now - was) / abs(was)
        if abs(drift) > BAND:
            violations.append({"path": ".".join(path), "baseline": was,
                               "current": now, "drift": drift})
    return violations


def compare_tables(fresh: pathlib.Path, committed: pathlib.Path
                   ) -> list[dict]:
    """``*.txt`` tables that are not byte-equal, or on one side only."""
    was, now = ({p.name: p.read_text() for p in d.glob("*.txt")}
                for d in (committed, fresh))
    return [{"path": name, "baseline": was.get(name),
             "current": now.get(name)}
            for name in sorted(was.keys() | now.keys())
            if was.get(name) != now.get(name)]


def report(violations: list[dict]) -> int:
    if not violations:
        print("OK: every leaf and table reproduces the committed results")
        return 0
    print(f"DIFFERENT: {len(violations)} item(s)")
    for v in violations:
        was, now = v["baseline"], v["current"]
        if now is None:
            what = "MISSING from the fresh run"
        elif was is None:
            what = "NOT in the committed results"
        elif isinstance(now, str):
            what = "table text differs"
        else:
            what = (f"baseline={was:.12g} current={now:.12g} "
                    f"drift={v['drift']:+.3g}")
        print(f"  {v['path']}: {what}")
    return 1


def _load(results: pathlib.Path) -> dict:
    path = results / "baseline.json"
    return json.loads(path.read_text()) if path.exists() else {}


def main() -> int:
    import pytest

    committed = _common.RESULTS
    benches = sorted(committed.parent.glob("bench_*.py"))
    with tempfile.TemporaryDirectory() as scratch:
        _common.RESULTS = fresh = pathlib.Path(scratch)
        try:
            failed = pytest.main([str(b) for b in benches]) != 0
        finally:
            _common.RESULTS = committed
        violations = (compare_docs(_load(fresh), _load(committed))
                      + compare_tables(fresh, committed))
    if failed:
        print("FAILED: a bench did not pass (pytest output above)")
    return report(violations) or int(failed)


if __name__ == "__main__":
    sys.exit(main())
