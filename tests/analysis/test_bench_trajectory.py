"""The host-clock trajectory has no silent holes.

docs/TESTING.md asks every PR from 17 on to commit ``BENCH_<n>.json``:
the unedited ``--out`` document of ``python3 benchmarks/e2e/run.py``
(seed 42, defaults) on its head.  Every ``PR n`` that CHANGES.md
records must have one, or stand in ``GAPS`` with the reason it has
none.  Nothing here runs a measurement.
"""

import json
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[2]
FIRST = 17

#: PR -> why there is no BENCH_<n>.json.
GAPS = {
    21: "did not land",
    26: "not recorded",
    27: "not recorded",
    28: "not recorded",
    29: "not recorded",
    30: "not recorded",
}


def recorded_prs() -> set[int]:
    """The PR each CHANGES.md entry is about (``PR n: …`` or
    ``- **PR n — …``)."""
    text = (ROOT / "CHANGES.md").read_text()
    return {int(n) for n in re.findall(r"^(?:- \*\*)?PR (\d+)\b", text,
                                       re.MULTILINE)}


def bench(n: int) -> pathlib.Path:
    return ROOT / f"BENCH_{n}.json"


def test_every_pr_since_17_has_its_document_or_a_stated_gap():
    prs = recorded_prs()
    assert FIRST in prs             # the scan reads what CHANGES.md says
    missing = sorted(n for n in prs
                     if n >= FIRST and n not in GAPS and not bench(n).exists())
    assert not missing, (f"PRs without a BENCH_<n>.json and not in GAPS: "
                         f"{missing}")


def test_the_gap_list_holds_only_real_gaps():
    assert all(reason.strip() for reason in GAPS.values())
    filled = sorted(n for n in GAPS if bench(n).exists())
    assert not filled, f"in GAPS but committed: {filled}"


def test_each_document_is_a_seed_42_run_of_the_harness():
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths
    for path in paths:
        n = int(re.fullmatch(r"BENCH_(\d+)\.json", path.name).group(1))
        assert n >= FIRST and n not in GAPS, path.name
        doc = json.loads(path.read_text())
        assert (doc["schema"], doc["seed"]) == ("denova.e2e/1", 42), path.name
        assert doc["results"], path.name
