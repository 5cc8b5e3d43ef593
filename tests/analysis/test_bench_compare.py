"""The one benchmark system: ``benchmarks/_common.emit`` is the only
writer of ``benchmarks/results/``, ``benchmarks/compare.py`` the only
gate.  Nothing here runs a measurement."""

import ast
import importlib.util
import json
import pathlib
import shutil
import sys

import pytest

from tests._code_index import as_tree, tree

BENCH = pathlib.Path(__file__).resolve().parents[2] / "benchmarks"
spec = importlib.util.spec_from_file_location("bench_compare",
                                              BENCH / "compare.py")
bench_compare = importlib.util.module_from_spec(spec)
sys.modules["bench_compare"] = bench_compare
spec.loader.exec_module(bench_compare)

compare_docs = bench_compare.compare_docs
iter_numeric_leaves = bench_compare.iter_numeric_leaves
_common = bench_compare._common


class TestLeafWalk:
    def test_walks_nested_dicts_and_lists(self):
        doc = {"a": {"b": [1, 2.5]}, "c": 3}
        got = dict(iter_numeric_leaves(doc))
        assert got == {("a", "b", "0"): 1.0, ("a", "b", "1"): 2.5,
                       ("c",): 3.0}

    def test_ignores_bools_and_strings(self):
        got = dict(iter_numeric_leaves({"x": True, "y": "5", "z": 1}))
        assert got == {("z",): 1.0}


class TestCompare:
    BASE = {"fig": {"mb_s": [100.0, 200.0]}}

    def test_within_band_passes(self):
        cur = {"fig": {"mb_s": [100.0 * (1 + 1e-13), 200.0]}}
        assert compare_docs(cur, self.BASE) == []

    def test_regression_flagged_with_drift(self):
        cur = {"fig": {"mb_s": [100.0, 150.0]}}
        v = compare_docs(cur, self.BASE)
        assert len(v) == 1
        assert v[0]["path"] == "fig.mb_s.1"
        assert v[0]["drift"] == pytest.approx(-0.25)

    def test_band_is_symmetric(self):
        # An unexplained speed-up invalidates the baseline too, and the
        # simulated clock has no noise to allow for.
        for now in (260.0, 200.0 * (1 + 1e-6), 200.0 * (1 - 1e-6)):
            cur = {"fig": {"mb_s": [100.0, now]}}
            assert len(compare_docs(cur, self.BASE)) == 1

    def test_missing_current_leaf_is_a_hard_failure(self):
        # A baselined metric the fresh run no longer produces must fail
        # — dropping a series is itself a regression.
        cur = {"fig": {"mb_s": [100.0]}}
        v = compare_docs(cur, self.BASE)
        assert len(v) == 1
        assert v[0]["path"] == "fig.mb_s.1"
        assert v[0]["current"] is None
        assert v[0]["drift"] == float("inf")

    def test_extra_current_leaf_is_a_hard_failure(self):
        # ... and so is a number nobody committed: it would be ungated.
        cur = {"fig": {"mb_s": [100.0, 200.0], "p99": 7.0}}
        v = compare_docs(cur, self.BASE)
        assert [(x["path"], x["baseline"]) for x in v] == [("fig.p99", None)]

    def test_missing_leaf_report_exits_nonzero(self, capsys):
        cur = {"fig": {"mb_s": [100.0], "p99": 7.0}}
        assert bench_compare.report(compare_docs(cur, self.BASE)) == 1
        out = capsys.readouterr().out
        assert "fig.mb_s.1: MISSING" in out
        assert "fig.p99: NOT in the committed" in out
        assert bench_compare.report([]) == 0

    def test_zero_baseline(self):
        assert compare_docs({"x": 0}, {"x": 0}) == []
        assert len(compare_docs({"x": 5}, {"x": 0})) == 1


# ------------------------------------------------------- structural guard

WRITES = {"write_text", "write_bytes", "dump", "dumps"}


def guard_violations(name: str, source: str) -> list[str]:
    """What ``name`` (a file under benchmarks/, outside e2e/) does that
    only ``_common.py`` may do, or that the deleted system did.  String
    constants include docstrings: "numbers land in benchmarks/results/x"
    is how the per-bench files were advertised."""
    writer, gate = name == "_common.py", name == "compare.py"
    bad = []
    for node in ast.walk(as_tree(source)):
        ident = getattr(node, "id", getattr(node, "attr", getattr(
            node, "name", None)))       # Name / Attribute / import alias
        if isinstance(node, ast.Call):
            called = getattr(node.func, "attr",
                             getattr(node.func, "id", None))
            mode = node.args[1:2] + [k.value for k in node.keywords
                                     if k.arg == "mode"]
            if called in WRITES and not writer:
                bad.append(f"calls {called}()")
            if called == "open" and any(
                    isinstance(m, ast.Constant) and set(m.value) & set("wax")
                    for m in mode):
                bad.append("opens a file for writing")
            if gate and called in ("add_argument", "Config"):
                bad.append(f"calls {called}()")
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            mods = ([a.name for a in node.names]
                    if isinstance(node, ast.Import) else [node.module or ""])
            for mod in mods:
                root = mod.split(".")[0]
                if root == "pytest_benchmark" or (
                        gate and root in ("repro", "argparse")):
                    bad.append(f"imports {mod}")
        elif isinstance(node, ast.FunctionDef):
            if any(a.arg == "benchmark" for a in node.args.args):
                bad.append(f"{node.name} takes the benchmark fixture")
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and not writer
                and ("results" in node.value.split("/")
                     or node.value.endswith("baseline.json"))
                and not (gate and node.value == "baseline.json")):
            bad.append("names the results directory")
        if ident == "RESULTS" and not (writer or gate):
            bad.append("names the results directory")
    return bad


FIGURE_SCRIPTS = sorted(BENCH.glob("*.py"))


@pytest.mark.parametrize("path", FIGURE_SCRIPTS, ids=lambda p: p.name)
def test_one_writer_one_gate(path):
    assert guard_violations(path.name, tree(path)) == []


@pytest.mark.parametrize("name,pasted,expect", [
    ("bench_x.py", '''
def _update_baseline(key, value):
    path = RESULTS / "x_baseline.json"
    path.write_text(json.dumps({key: value}, indent=2))
''', ["names the results directory", "calls write_text()",
      "calls dumps()"]),
    ("bench_x.py", "from _common import RESULTS, emit",
     ["names the results directory"]),
    ("bench_x.py", 'open("benchmarks/results/x.txt", "w").write("t")',
     ["opens a file for writing", "names the results directory"]),
    ("bench_x.py", "def test_x(benchmark):\n    benchmark.pedantic(f)",
     ["test_x takes the benchmark fixture"]),
    ("compare.py", '''
import argparse
from repro.core import Config
ap = argparse.ArgumentParser()
ap.add_argument("--quick")
cfg = Config(device_pages=8192)
''', ["imports argparse", "imports repro.core", "calls add_argument()",
      "calls Config()"]),
])
def test_guard_trips_when_a_deleted_copy_is_pasted_back(name, pasted,
                                                        expect):
    assert set(guard_violations(name, pasted)) == set(expect)


# -------------------------------------------------------- artefact hygiene

def test_every_committed_key_has_its_table_and_nothing_else():
    keys = json.loads((_common.RESULTS / "baseline.json").read_text())
    want = {"baseline.json"} | {f"{k}.txt" for k in keys}
    assert {p.name for p in _common.RESULTS.iterdir()} == want
    assert len(keys) >= 28


# ------------------------------------------- the gate, over two fake benches

FAKE = {"alpha": ({"mb_s": [100.0, 200.5], "n": 3}, "alpha\n1  2"),
        "beta": ({"p99_ns": 1234.5}, "beta table")}


@pytest.fixture(scope="module")
def fake_dir(tmp_path_factory):
    """A benchmarks directory with two trivial benches (one directory
    for the module: the nested pytest imports each bench file once)."""
    root = tmp_path_factory.mktemp("fake_benchmarks")
    for name, (doc, table) in FAKE.items():
        (root / f"bench_fake_{name}.py").write_text(
            "from _common import emit\n\n"
            f"def test_{name}():\n"
            f"    emit({name!r}, {doc!r}, {table!r})\n")
    return root


@pytest.fixture
def fake(fake_dir, monkeypatch):
    """Its committed results, as the two benches produce them."""
    results = fake_dir / "results"
    shutil.rmtree(results, ignore_errors=True)
    monkeypatch.setattr(_common, "RESULTS", results)
    for name, (doc, table) in FAKE.items():
        _common.emit(name, doc, table)
    return results


def _gate(capsys) -> tuple[int, list[str]]:
    """Run the gate; its exit status and the lines of its own report."""
    capsys.readouterr()
    rc = bench_compare.main()
    out = capsys.readouterr().out.splitlines()
    start = next(i for i, line in enumerate(out)
                 if line.startswith(("OK:", "DIFFERENT:", "FAILED:")))
    return rc, out[start:]


def _edit_baseline(results, fn):
    path = results / "baseline.json"
    doc = json.loads(path.read_text())
    fn(doc)
    path.write_text(json.dumps(doc))


class TestGate:
    def test_equal_results_exit_zero_and_leave_the_tree_alone(self, fake,
                                                              capsys):
        before = {p.name: p.read_bytes() for p in fake.iterdir()}
        rc, out = _gate(capsys)
        assert rc == 0 and out[0].startswith("OK:")
        assert {p.name: p.read_bytes() for p in fake.iterdir()} == before
        assert _common.RESULTS == fake

    def test_perturbed_leaf(self, fake, capsys):
        _edit_baseline(fake, lambda d: d["alpha"]["mb_s"].__setitem__(
            1, 200.5 * (1 + 1e-6)))
        rc, out = _gate(capsys)
        assert rc == 1 and len(out) == 2    # names that leaf, only
        assert out[1].startswith("  alpha.mb_s.1: baseline=200.5002")

    def test_key_the_fresh_run_no_longer_produces(self, fake, capsys):
        _edit_baseline(fake, lambda d: d["beta"].update(dropped=9.0))
        rc, out = _gate(capsys)
        assert rc == 1
        assert out[1:] == ["  beta.dropped: MISSING from the fresh run"]

    def test_key_nobody_committed(self, fake, capsys):
        _edit_baseline(fake, lambda d: d["alpha"].pop("n"))
        rc, out = _gate(capsys)
        assert rc == 1
        assert out[1:] == ["  alpha.n: NOT in the committed results"]

    def test_one_character_of_one_table(self, fake, capsys):
        (fake / "alpha.txt").write_text("alpha\n1  3\n")
        (fake / "beta.txt").unlink()
        rc, out = _gate(capsys)
        assert rc == 1
        assert out[1:] == ["  alpha.txt: table text differs",
                           "  beta.txt: NOT in the committed results"]

    def test_failing_claim_assertion(self, fake, capsys):
        bench = fake.parent / "bench_fake_claim.py"
        bench.write_text("def test_claim():\n    assert 1 > 2\n")
        try:
            rc, out = _gate(capsys)
        finally:
            bench.unlink()
        # The numbers still reproduce; the bench's own bar does not.
        assert rc == 1
        assert [line.split(":")[0] for line in out] == ["FAILED", "OK"]
