"""The device read planner: one request per neighbourhood of spans.

``neighbourhoods`` is the device's gap rule (read through a gap that
costs no more to stream than a second request); ``read_scattered``
applies it to a call's ``(addr, end, dst)`` spans and charges a span an
earlier one covers whole as a DRAM copy.  It is the one home of the
rule: FACT's map reader, the delete-pointer plan and every file read
import it from here.
"""

import ast

import pytest

from repro.pm import DRAM, OPTANE_DCPM, PMDevice, SimClock
from repro.pm.clock import fs_of
from repro.pm.plan import neighbourhoods, read_scattered
from tests._code_index import src_tree, src_trees
from tests._ledger import Ledger

#: Optane reads a gap through up to 250 ns × 6 B/ns.
REACH = 1500


class TestNeighbourhoods:
    def test_a_gap_up_to_the_reach_is_read_through(self):
        spans = [(0, 8), (8 + REACH, 16 + REACH),
                 (17 + 2 * REACH, 20 + 2 * REACH)]
        assert list(neighbourhoods(OPTANE_DCPM, spans)) == [
            (0, 2, 0, 16 + REACH), (2, 3, 17 + 2 * REACH, 20 + 2 * REACH)]

    def test_overlaps_extend_by_the_running_maximum_end(self):
        """The second span ends before the first does: the gap to the
        third is measured from the first's end, not the second's, and
        the request ends at the largest end."""
        spans = [(0, 5000), (100, 200), (5000 + REACH, 6600), (6000, 6100),
                 (6600 + REACH + 1, 8200)]
        assert list(neighbourhoods(OPTANE_DCPM, spans)) == [
            (0, 4, 0, 6600), (4, 5, 6600 + REACH + 1, 8200)]

    def test_no_span_no_request(self):
        assert list(neighbourhoods(OPTANE_DCPM, [])) == []


def device():
    dev = PMDevice(64 * 4096, model=OPTANE_DCPM, clock=SimClock())
    dev.write(0, bytes(range(256)) * (dev.size // 256))
    return dev


class TestReadScattered:
    def test_each_span_lands_at_its_destination(self):
        dev = device()
        spans = [(9000, 9100, 0), (100, 200, 100), (9050, 9080, 200)]
        out = bytearray(230)
        with Ledger(dev) as led:
            read_scattered(dev, spans, out)
        mem = dev.read_silent(0, dev.size)
        assert out == mem[9000:9100] + mem[100:200] + mem[9050:9080]
        assert [(r.addr, r.n) for r in led.select("read")] == [
            (100, 100), (9000, 100)]

    def test_a_covered_span_is_a_dram_copy_a_partial_one_is_not(self):
        """``[0, 4096)`` twice and ``[2048, 6144)``: one request of
        6 144 bytes; the second ``[0, 4096)`` is copied at DRAM cost,
        the partly covered span rides in the request."""
        dev = device()
        spans = [(2048, 6144, 0), (0, 4096, 4096), (0, 4096, 8192)]
        out = bytearray(3 * 4096)
        t0 = dev.clock.now_fs
        with Ledger(dev) as led:
            read_scattered(dev, spans, out)
        reads = led.select("read")
        assert [(r.addr, r.n) for r in reads] == [(0, 6144)]
        assert dev.clock.now_fs - t0 == reads[0].charge + fs_of(
            DRAM.read_cost(4096))
        mem = dev.read_silent(0, 6144)
        assert out == mem[2048:6144] + mem[:4096] + mem[:4096]

    def test_one_span_is_one_plain_read(self):
        dev = device()
        out = bytearray(10)
        with Ledger(dev) as led:
            read_scattered(dev, [(500, 505, 3)], out)
        assert [(r.addr, r.n) for r in led.select("read")] == [(500, 5)]
        assert out == bytes(3) + dev.read_silent(500, 5) + bytes(2)


def _defines(tree: ast.AST, name: str) -> bool:
    return any(isinstance(node, ast.FunctionDef) and node.name == name
               for node in ast.walk(tree))


def _imports_from(tree: ast.AST, module: str) -> set[str]:
    return {alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == module
            for alias in node.names}


class TestOneHome:
    def test_neighbourhoods_is_defined_once_in_pm(self):
        assert [rel for rel, tree in src_trees()
                if _defines(tree, "neighbourhoods")] == ["pm/plan.py"]

    @pytest.mark.parametrize("rel, name", [
        ("dedup/fact.py", "neighbourhoods"),
        ("nova/fs.py", "read_scattered"),
        ("repl/relocate.py", "neighbourhoods"),
    ])
    def test_fact_and_file_reads_plan_with_it(self, rel, name):
        assert name in _imports_from(src_tree(rel), "repro.pm.plan")
