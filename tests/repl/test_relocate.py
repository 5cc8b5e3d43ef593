"""Reverse-dedup relocation: sequential layout, budget/cursor resume,
FACT integrity, and the crash-replay of the intent journal."""

import pytest

from repro.dedup.reflink import SNAPSHOT_DIR
from repro.failure import check_fs_invariants
from repro.repl import relocate_latest
from repro.repl import REPL_DIR
from repro.repl.relocate import _min_runs

from tests.repl.util import build_chain_pair

pytestmark = pytest.mark.repl


def runs_of(fs, path):
    ino = fs.lookup(path, follow=False)
    return fs.caches[ino].index.physical_runs()


class TestRelocate:
    def test_latest_becomes_sequential(self):
        _src, dst, _b, _names = build_chain_pair(4)
        path = f"{SNAPSHOT_DIR}/s4/data"
        assert len(runs_of(dst, path)) > 1  # forward chain fragmented
        out = relocate_latest(dst)
        assert out["done"] and out["snapshot"] == "s4"
        assert out["pages_moved"] > 0
        runs = runs_of(dst, path)
        ino = dst.lookup(path, follow=False)
        assert len(runs) == _min_runs(dst.caches[ino].index.mapped_offsets)
        check_fs_invariants(dst)

    def test_relocation_is_idempotent(self):
        _src, dst, _b, _names = build_chain_pair(3)
        relocate_latest(dst)
        again = relocate_latest(dst)
        assert again["done"] and again["pages_moved"] == 0
        check_fs_invariants(dst)

    def test_older_snapshots_keep_content(self):
        """The indirection moves to the old snapshots; their bytes don't."""
        src, dst, _b, names = build_chain_pair(4)
        want = {}
        for name in names:
            ino = dst.lookup(f"{SNAPSHOT_DIR}/{name}/data", follow=False)
            want[name] = dst.read(ino, 0, dst.stat(ino).size)
        relocate_latest(dst)
        for name in names:
            ino = dst.lookup(f"{SNAPSHOT_DIR}/{name}/data", follow=False)
            assert dst.read(ino, 0, dst.stat(ino).size) == want[name], name
        check_fs_invariants(dst)

    def test_budget_and_cursor_resume(self):
        _src, dst, _b, _names = build_chain_pair(4)
        # Split the latest snapshot into several files so the pass has
        # more than one batch to resume across.
        moved = 0
        rounds = 0
        while True:
            out = relocate_latest(dst, budget=1)
            moved += out["pages_moved"]
            rounds += 1
            if out["done"]:
                break
            assert out["next_cursor"] > 0
            assert rounds < 100
        assert moved > 0
        check_fs_invariants(dst)
        # The counter saw every move.
        relocated = dst.obs.registry.counter("repl.pages_relocated_total")
        assert relocated.value == moved

    def test_no_intent_residue_after_clean_pass(self):
        _src, dst, _b, _names = build_chain_pair(3)
        relocate_latest(dst)
        assert not dst.exists(f"{REPL_DIR}/relocate.intent")

    def test_space_neutral(self):
        """Relocation changes placement, not occupancy: every old page
        freed, every unused slot of the fresh extents returned."""
        _src, dst, _b, _names = build_chain_pair(4)
        before = dst.statfs()["used_pages"]
        relocate_latest(dst)
        assert dst.statfs()["used_pages"] == before
        check_fs_invariants(dst)
